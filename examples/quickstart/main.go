// Quickstart: run the paper's two-stream instability with the
// traditional PIC method and compare the measured growth rate of the
// most unstable mode against linear theory (the validation behind the
// paper's Fig. 4, bottom panel).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"dlpic/internal/diag"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

func main() {
	// The paper's §III configuration: 64 cells, L = 2*pi/3.06, dt = 0.2,
	// two beams at v0 = +-0.2. A reduced particle count and a seeded
	// mode-1 perturbation give a clean growth measurement in about a
	// second.
	cfg := pic.Default()
	cfg.ParticlesPerCell = 200
	cfg.Vth = 0.005
	cfg.QuietStart = true
	cfg.PerturbAmp = 1e-4 * cfg.Length
	cfg.PerturbMode = 1

	sim, err := pic.New(cfg, nil) // nil field method: deposit + Poisson
	if err != nil {
		log.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(200, &rec, nil); err != nil { // t = 40, as in the paper
		log.Fatal(err)
	}

	fit, err := sweep.MeasureGrowthRate(&rec)
	if err != nil {
		log.Fatal(err)
	}
	cold := cfg
	cold.Vth = 0
	gamma := sweep.TheoreticalGrowthRate(cold)

	fmt.Printf("two-stream instability, %d particles, t = %.0f\n", cfg.NumParticles(), sim.Time())
	fmt.Printf("  linear theory growth rate: %.4f (wp/sqrt(8) = 0.3536 at K = 0.612)\n", gamma)
	fmt.Printf("  measured growth rate:      %.4f (R2 = %.4f, window t = [%.1f, %.1f])\n",
		fit.Gamma, fit.R2, fit.T0, fit.T1)
	fmt.Printf("  relative error:            %.1f%%\n", 100*math.Abs(fit.Gamma-gamma)/gamma)
}
