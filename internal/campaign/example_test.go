package campaign_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dlpic/internal/campaign"
	"dlpic/internal/core"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// ExampleRun runs a journaled multi-method campaign, simulates a
// mid-run kill by truncating the journal to its first two cells, and
// resumes: the restored-plus-rerun results are bit-identical to the
// uninterrupted campaign (Digest covers everything but wall-clock
// timings).
func ExampleRun() {
	base := pic.Default()
	base.Cells = 32
	base.ParticlesPerCell = 30
	dir, err := os.MkdirTemp("", "dlpic-campaign")
	if err != nil {
		fmt.Println("tempdir failed:", err)
		return
	}
	defer os.RemoveAll(dir)
	spec := campaign.Spec{
		Scenarios: sweep.Grid(base, []float64{0.15, 0.2}, []float64{0.01}, 1, 10, 1),
		Opts: sweep.Options{
			SkipFit: true,
			Methods: []sweep.MethodSpec{
				{Name: "traditional"},
				{Name: "oracle", Factory: func(sc sweep.Scenario) (pic.FieldMethod, error) {
					spec := phasespace.DefaultSpec(sc.Cfg.Length)
					spec.NX = sc.Cfg.Cells // oracle recovery needs NX == Cells
					return core.NewOracleSolver(sc.Cfg, spec)
				}},
			},
		},
	}
	journal := filepath.Join(dir, "campaign.jsonl")
	full, err := campaign.Run(journal, spec)
	if err != nil {
		fmt.Println("campaign failed:", err)
		return
	}
	// Simulate a kill after two of the four cells.
	buf, _ := os.ReadFile(journal)
	lines := strings.SplitAfter(string(buf), "\n")
	os.WriteFile(journal, []byte(strings.Join(lines[:2], "")), 0o644)
	resumed, err := campaign.Resume(journal, spec)
	if err != nil {
		fmt.Println("resume failed:", err)
		return
	}
	if err := sweep.FirstError(resumed); err != nil {
		fmt.Println("cell failed:", err)
		return
	}
	fmt.Printf("%d cells; resumed bit-identical to uninterrupted: %v\n",
		len(resumed), campaign.Digest(resumed) == campaign.Digest(full))
	// Output:
	// 4 cells; resumed bit-identical to uninterrupted: true
}
