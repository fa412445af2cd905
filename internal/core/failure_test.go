package core

import (
	"math"
	"strings"
	"testing"

	"dlpic/internal/interp"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Failure injection: the DL solver is the one stage that can emit
// unphysical output (a network is not a solver with guarantees). These
// tests pin down the failure behavior: corrupted networks are detected
// at the field-solve boundary and surface as errors, never as silent
// NaN propagation into particle state.

func corruptibleSetup(t *testing.T) (pic.Config, phasespace.GridSpec, *nn.Network) {
	t.Helper()
	cfg := pic.Default()
	cfg.Cells = 16
	cfg.ParticlesPerCell = 5
	cfg.Vth = 0
	cfg.QuietStart = true
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: 16, Hidden: 8, HiddenLayers: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, spec, net
}

func TestNaNWeightDetectedAtConstruction(t *testing.T) {
	cfg, spec, net := corruptibleSetup(t)
	// Corrupt the output bias: it is added unconditionally, so the NaN
	// reaches the prediction regardless of input sparsity. (A NaN in a
	// weight column that only ever sees zero inputs is skipped by the
	// GEMM's zero-shortcut — that is a deliberate kernel property.)
	params := net.Params()
	params[len(params)-1].W.Data[0] = math.NaN()
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 1}, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	// pic.New performs the initial field solve; the NaN must surface as
	// an error there, not as corrupted particles.
	if _, err := pic.New(cfg, solver); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN weights not detected at initial solve: err=%v", err)
	}
}

func TestNaNWeightDetectedMidRun(t *testing.T) {
	cfg, spec, net := corruptibleSetup(t)
	solver, err := NewNNSolver(net, spec, phasespace.Normalizer{Min: 0, Max: 1}, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pic.New(cfg, solver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Step(); err != nil {
		t.Fatalf("healthy step failed: %v", err)
	}
	// Corrupt the network mid-run (simulating, e.g., a bad fine-tune);
	// the output bias is always consumed.
	params := net.Params()
	params[len(params)-1].W.Data[0] = math.Inf(1)
	if _, err := sim.Step(); err == nil {
		t.Fatal("Inf weights not detected mid-run")
	}
	// Particle state must still be finite: the error fired before the
	// field was consumed by a kick.
	for i := range sim.P.V {
		if math.IsNaN(sim.P.V[i]) || math.IsInf(sim.P.V[i], 0) {
			t.Fatalf("particle %d corrupted after detected failure", i)
		}
	}
}

// Training with the physics-informed loss must converge like plain MSE
// (the paper's §VII PINN suggestion, implemented as an extension).
func TestPhysicsInformedTrainingConverges(t *testing.T) {
	r := rng.New(3)
	inDim, outDim, n := 32, 16, 256
	// Synthetic task shaped like the field-solver problem: smooth
	// periodic targets from non-negative inputs.
	x := tensor.New(n, inDim)
	y := tensor.New(n, outDim)
	for i := 0; i < n; i++ {
		amp := r.Float64()
		phase := r.Float64() * 2 * math.Pi
		for j := 0; j < inDim; j++ {
			x.Data[i*inDim+j] = r.Float64()
		}
		for j := 0; j < outDim; j++ {
			y.Data[i*outDim+j] = amp * 0.1 * math.Sin(2*math.Pi*float64(j)/float64(outDim)+phase)
		}
	}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: inDim, OutDim: outDim, Hidden: 32, HiddenLayers: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	loss := nn.PhysicsMSE{Dx: 0.1, LambdaDiv: 0.2, LambdaMean: 0.2}
	hist, err := nn.Fit(net, x, y, nil, nil, nn.TrainConfig{
		Epochs: 30, BatchSize: 32, Optimizer: nn.NewAdam(2e-3), Loss: loss, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.Epochs[0].TrainLoss, hist.Final().TrainLoss
	if last > first/5 {
		t.Fatalf("PINN training barely improved: %v -> %v", first, last)
	}
}
