// Package dlpic is a Go reproduction of "A Deep Learning-Based
// Particle-in-Cell Method for Plasma Simulations" (Aguilar & Markidis,
// IEEE CLUSTER 2021, arXiv:2107.02232).
//
// The simulator, the neural-network framework, the phase-space-binning
// DL field solver that is the paper's contribution, and the corpus,
// training and campaign pipeline around them live in the packages
// under internal/ (README.md maps them). The programs under examples/
// walk through the paper's cycle with those packages directly.
//
// This package holds only the growth-rate pair of the paper's Fig. 4
// that the repository benchmark (tools/bench) reports:
//
//	var rec diag.Recorder
//	sim.Run(200, &rec, nil)                   // two-stream instability
//	fit, _ := dlpic.MeasureGrowthRate(&rec)   // measured slope
//	theory := dlpic.TheoreticalGrowthRate(cfg) // linear theory
package dlpic

import (
	"dlpic/internal/diag"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// MeasureGrowthRate fits the exponential growth of the recorded
// mode-amplitude series using an automatic window between the noise
// floor and saturation (sweep.MeasureGrowthRate).
func MeasureGrowthRate(rec *diag.Recorder) (diag.GrowthFit, error) {
	return sweep.MeasureGrowthRate(rec)
}

// TheoreticalGrowthRate returns the cold two-stream linear growth rate
// of the monitored mode for cfg (the "Linear Theory" slope of Fig. 4).
func TheoreticalGrowthRate(cfg pic.Config) float64 {
	return sweep.TheoreticalGrowthRate(cfg)
}
