// Cold-beam stability (paper Fig. 6): two beams at v0 = +-0.4 with zero
// thermal spread are linearly *stable* (K = k v0 / wp > 1), yet the
// traditional momentum-conserving PIC method develops the numerical
// cold-beam instability — phase-space ripples and artificial heating.
// The DL-based cycle (run here with the learning-free oracle solver,
// which consumes the same phase-space histogram a trained network
// would) filters the sub-cell information that feeds the instability.
//
//	go run ./examples/coldbeam
package main

import (
	"fmt"
	"log"

	"dlpic/internal/ascii"
	"dlpic/internal/core"
	"dlpic/internal/diag"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
)

func main() {
	cfg := pic.Default()
	cfg.ParticlesPerCell = 300
	cfg.V0 = 0.4
	cfg.Vth = 0.0
	cfg.Seed = 7

	k1 := 2 * 3.141592653589793 / cfg.Length
	fmt.Printf("cold beams: v0 = %.1f, K = k1*v0/wp = %.3f > 1 -> linearly stable\n\n", cfg.V0, k1*cfg.V0/cfg.Wp)

	run := func(name string, sim *pic.Simulation) {
		var rec diag.Recorder
		spread0 := diag.VelocitySpread(sim.P.V)
		if err := sim.Run(200, &rec, nil); err != nil { // t = 40 as in Fig. 6
			log.Fatal(err)
		}
		tot, _ := rec.Series("total")
		fmt.Printf("%s\n", name)
		fmt.Printf("  beam RMS spread:       %.5f -> %.5f\n", spread0, diag.VelocitySpread(sim.P.V))
		fmt.Printf("  total energy variation: %.3f%%\n\n", 100*diag.MaxRelativeVariation(tot))
		fmt.Print(ascii.PhaseSpace(sim.P.X, sim.P.V, cfg.Length, -0.6, 0.6, 64, 16,
			"  phase space at t=40"))
		fmt.Println()
	}

	trad, err := pic.New(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	run("traditional PIC (momentum-conserving, CIC + spectral)", trad)

	solver, err := core.NewOracleSolver(cfg, phasespace.DefaultSpec(cfg.Length))
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := pic.New(cfg, solver)
	if err != nil {
		log.Fatal(err)
	}
	run("DL-based PIC cycle (phase-space binning field stage)", oracle)
}
