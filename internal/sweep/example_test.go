package sweep_test

import (
	"fmt"

	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// ExampleRun fans a small two-stream parameter scan across the
// concurrent sweep engine. Seeds are pre-derived in scenario order by
// Grid and every kernel reduces deterministically, so the results are
// bit-identical at any Workers setting.
func ExampleRun() {
	base := pic.Default()
	base.ParticlesPerCell = 50 // laptop-scale example
	scs := sweep.Grid(base, []float64{0.15, 0.2}, []float64{0.025}, 1, 60, 1)
	results := sweep.Run(scs, sweep.Options{Workers: 4, SkipFit: true})
	if err := sweep.FirstError(results); err != nil {
		fmt.Println("sweep failed:", err)
		return
	}
	for _, r := range results {
		fmt.Printf("%s: %d samples, theory gamma %.3f\n",
			r.Scenario.Name, r.Rec.Len(), r.TheoryGamma)
	}
	// Output:
	// v0=0.15 vth=0.025 rep=0: 60 samples, theory gamma 0.330
	// v0=0.2 vth=0.025 rep=0: 60 samples, theory gamma 0.354
}
