// Package dlpic is a Go reproduction of "A Deep Learning-Based
// Particle-in-Cell Method for Plasma Simulations" (Aguilar & Markidis,
// IEEE CLUSTER 2021, arXiv:2107.02232).
//
// It bundles a complete 1D electrostatic Particle-in-Cell simulator, a
// from-scratch neural-network framework, the phase-space-binning DL
// field solver that is the paper's contribution, and the dataset /
// training / evaluation pipeline connecting them. This package is the
// stable facade: it re-exports the main types and wires the common
// workflows (run a simulation, generate a corpus, train a solver, run
// the DL-PIC loop) in a few calls. The internal packages carry the full
// API surface.
//
// Quickstart (the examples/ directory has runnable versions):
//
//	cfg := dlpic.DefaultConfig()          // paper §III configuration
//	sim, _ := dlpic.NewTraditional(cfg)   // traditional PIC (Fig. 1)
//	var rec dlpic.Recorder
//	sim.Run(200, &rec, nil)               // two-stream instability
//	fit, _ := dlpic.MeasureGrowthRate(&rec)
//	theory := dlpic.TheoreticalGrowthRate(cfg)
//	fmt.Printf("growth: %.3f (theory %.3f)\n", fit.Gamma, theory)
//
// Scenario sweeps. Many-run workloads (parameter scans, corpus
// generation, convergence studies) go through the concurrent sweep
// engine instead of hand-rolled loops. SweepGrid builds a scenario list
// with pre-derived seeds; RunSweep fans it across a bounded worker pool
// and returns per-scenario recorders, growth-rate fits and conservation
// metrics in scenario order:
//
//	base := dlpic.DefaultConfig()
//	scs := dlpic.SweepGrid(base, []float64{0.1, 0.2, 0.3}, []float64{0, 0.025}, 2, 200, 1)
//	results := dlpic.RunSweep(scs, dlpic.SweepRunOpts{Workers: 0}) // 0 = all cores
//	if err := dlpic.FirstSweepError(results); err != nil { ... }
//	for _, r := range results {
//	    fmt.Printf("%s: gamma %.3f (theory %.3f)\n", r.Scenario.Name, r.Growth.Gamma, r.TheoryGamma)
//	}
//
// Batched DL inference. When the sweep's field method is the neural
// solver, per-scenario Predict1 calls pay one small GEMM per scenario
// per step. NewBatchedSolver starts an inference server that stacks
// the concurrent scenarios' field requests into single PredictBatch
// calls on one shared network:
//
//	bs, _ := dlpic.NewBatchedSolver(solver, 0) // 0 = default batch cap
//	defer bs.Close()
//	results := dlpic.RunSweep(scs, dlpic.SweepRunOpts{
//	    Methods: []dlpic.SweepMethodSpec{{Name: "mlp-batched", Batcher: bs}},
//	})
//
// Multi-method campaigns. SweepRunOpts.Methods is a named method
// registry: every scenario runs once per entry (traditional, MLP, CNN,
// oracle, ... side by side) and each result carries its method name.
// RunCampaign additionally journals every completed scenario x method
// cell to an append-only checkpoint file, and ResumeCampaign continues
// an interrupted campaign from it, re-running only the missing cells —
// the restored result set is bit-identical to an uninterrupted run.
//
// Every hot-path kernel reduces through the deterministic chunked
// primitives of internal/parallel, and batched rows are bit-identical
// to per-call inference, so simulations — and whole sweeps and
// campaigns, batched or not, interrupted or not — are bit-identical at
// any GOMAXPROCS, sweep worker count and batch size.
package dlpic

import (
	"fmt"
	"io"
	"math"

	"dlpic/internal/batch"
	"dlpic/internal/campaign"
	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/diag"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
	"dlpic/internal/tensor"
	"dlpic/internal/theory"
)

// Re-exported core types. The aliases keep one import path for users
// while the implementation lives in focused internal packages.
type (
	// Config is the full PIC run configuration (see pic.Config).
	Config = pic.Config
	// Simulation is a running PIC system (traditional or DL-based).
	Simulation = pic.Simulation
	// FieldMethod computes the grid E field each cycle.
	FieldMethod = pic.FieldMethod
	// Recorder accumulates per-step diagnostics.
	Recorder = diag.Recorder
	// GrowthFit is a fitted exponential growth rate.
	GrowthFit = diag.GrowthFit
	// PhaseSpec is the phase-space binning specification.
	PhaseSpec = phasespace.GridSpec
	// Normalizer is the min-max input transform (paper Eq. 5).
	Normalizer = phasespace.Normalizer
	// NNSolver is the trained DL electric-field solver (paper Fig. 2).
	NNSolver = core.NNSolver
	// OracleSolver is the learning-free reference field solver that
	// consumes the same phase-space histogram as the NN.
	OracleSolver = core.OracleSolver
	// Dataset is a (phase-space, E-field) training corpus.
	Dataset = dataset.Dataset
	// SweepOpts configures corpus generation (paper §IV-1).
	SweepOpts = dataset.GenerateOpts
	// Network is a trainable/deployable neural network.
	Network = nn.Network
	// TrainConfig drives training.
	TrainConfig = nn.TrainConfig
	// History is a training trajectory.
	History = nn.History
	// Metrics are the Table-I error statistics (MAE, max error).
	Metrics = nn.Metrics
	// TrainCheckpoint configures epoch-granular training checkpoints:
	// set it as TrainConfig.Checkpoint and every Every-th epoch the
	// full training state (weights, optimizer moments, shuffle cursor,
	// history) is written atomically to Path; ResumeTraining continues
	// a killed fit from it bit-identically.
	TrainCheckpoint = nn.Checkpoint
	// Optimizer updates network parameters from their gradients.
	Optimizer = nn.Optimizer
)

// NewAdam returns the paper's Adam optimizer (lr <= 0 selects the
// paper's 1e-4). Its moment estimates survive training checkpoints.
func NewAdam(lr float64) Optimizer { return nn.NewAdam(lr) }

// MSELoss returns the mean-squared-error training loss (the paper's).
func MSELoss() nn.Loss { return nn.MSE{} }

// DefaultConfig returns the paper's §III configuration: 64 cells,
// L = 2*pi/3.06, dt = 0.2, 1000 electrons/cell, v0 = 0.2, vth = 0.025.
func DefaultConfig() Config { return pic.Default() }

// DefaultPhaseSpec returns the 64x64 phase-space binning over the box of
// cfg with the velocity window [-0.8, 0.8] (covers the paper's cold-beam
// case) and NGP binning as in the paper.
func DefaultPhaseSpec(cfg Config) PhaseSpec {
	return phasespace.DefaultSpec(cfg.Length)
}

// NewTraditional builds the traditional PIC simulation of Fig. 1
// (deposit + Poisson field solver).
func NewTraditional(cfg Config) (*Simulation, error) {
	return pic.New(cfg, nil)
}

// NewDLPIC builds the DL-based PIC simulation of Fig. 2 around a trained
// field solver.
func NewDLPIC(cfg Config, solver *NNSolver) (*Simulation, error) {
	if solver == nil {
		return nil, fmt.Errorf("dlpic: nil solver")
	}
	return pic.New(cfg, solver)
}

// NewOracleDLPIC builds the DL-PIC cycle with the learning-free oracle
// solver — same binning stage, exact field recovery. Useful to separate
// cycle error from learning error.
func NewOracleDLPIC(cfg Config, spec PhaseSpec) (*Simulation, error) {
	oracle, err := core.NewOracleSolver(cfg, spec)
	if err != nil {
		return nil, err
	}
	return pic.New(cfg, oracle)
}

// NewOracleSolver builds the learning-free oracle field method on its
// own — e.g. as the Factory of a sweep method registry entry, where
// the oracle runs side by side with the trained solvers.
func NewOracleSolver(cfg Config, spec PhaseSpec) (*OracleSolver, error) {
	return core.NewOracleSolver(cfg, spec)
}

// GenerateDataset runs the traditional-PIC sweep of §IV-1 and returns
// the raw (un-normalized) corpus.
func GenerateDataset(opts SweepOpts) (*Dataset, error) {
	return dataset.Generate(opts)
}

// PaperSweep returns the paper's full §IV-1 sweep axes: v0 in {0.05,
// 0.1, 0.15, 0.18, 0.3}, vth in {0, 0.001, 0.005, 0.01}, 10 repeats, 200
// steps (40,000 samples at full scale).
func PaperSweep(base Config, spec PhaseSpec, seed uint64) SweepOpts {
	return SweepOpts{
		Base:    base,
		V0s:     []float64{0.05, 0.1, 0.15, 0.18, 0.3},
		Vths:    []float64{0.0, 0.001, 0.005, 0.01},
		Repeats: 10, Steps: 200, SampleEvery: 1,
		Spec: spec, Seed: seed,
	}
}

// ScaledSweep returns a laptop-scale version of the paper's sweep that
// preserves its structure (multiple v0/vth combinations, repeats,
// full-instability trajectories) at a fraction of the samples.
func ScaledSweep(base Config, spec PhaseSpec, seed uint64) SweepOpts {
	return SweepOpts{
		Base:    base,
		V0s:     []float64{0.1, 0.15, 0.18, 0.3},
		Vths:    []float64{0.0, 0.005},
		Repeats: 2, Steps: 200, SampleEvery: 2,
		Spec: spec, Seed: seed,
	}
}

// SolverArch names a network architecture from the paper (plus the
// residual extension).
type SolverArch int

const (
	// ArchMLP is the paper's MLP (3 hidden ReLU layers + linear output).
	ArchMLP SolverArch = iota
	// ArchCNN is the paper's CNN (2 conv blocks + dense stack).
	ArchCNN
	// ArchResMLP is the residual-MLP extension from the discussion.
	ArchResMLP
)

// String returns the architecture name.
func (a SolverArch) String() string {
	switch a {
	case ArchMLP:
		return "MLP"
	case ArchCNN:
		return "CNN"
	case ArchResMLP:
		return "ResMLP"
	default:
		return fmt.Sprintf("SolverArch(%d)", int(a))
	}
}

// SolverOpts sizes a DL field solver. Zero values select the scaled
// defaults; Paper sets the paper's full sizes (1024-wide dense stack).
type SolverOpts struct {
	Arch   SolverArch
	Hidden int // dense width (paper: 1024; scaled default: 128)
	Layers int // dense depth (paper: 3)
	// CNN channels (scaled defaults 4/8; paper did not specify).
	Channels1, Channels2 int
	// ResMLP blocks (default 2).
	Blocks int
	Seed   uint64
}

func (o SolverOpts) withDefaults() SolverOpts {
	if o.Hidden == 0 {
		o.Hidden = 128
	}
	if o.Layers == 0 {
		o.Layers = 3
	}
	if o.Channels1 == 0 {
		o.Channels1 = 4
	}
	if o.Channels2 == 0 {
		o.Channels2 = 8
	}
	if o.Blocks == 0 {
		o.Blocks = 2
	}
	return o
}

// PaperSolverOpts returns the paper's full-size architecture settings.
func PaperSolverOpts(arch SolverArch, seed uint64) SolverOpts {
	return SolverOpts{Arch: arch, Hidden: 1024, Layers: 3, Channels1: 16, Channels2: 32, Blocks: 3, Seed: seed}
}

// BuildNetwork constructs an untrained network of the requested
// architecture for a given phase-space spec and grid size.
func BuildNetwork(opts SolverOpts, spec PhaseSpec, cells int) (*Network, error) {
	opts = opts.withDefaults()
	r := rng.New(opts.Seed)
	switch opts.Arch {
	case ArchMLP:
		return nn.NewMLP(nn.MLPConfig{
			InDim: spec.Size(), OutDim: cells, Hidden: opts.Hidden, HiddenLayers: opts.Layers,
		}, r)
	case ArchCNN:
		return nn.NewCNN(nn.CNNConfig{
			H: spec.NV, W: spec.NX, OutDim: cells,
			Channels1: opts.Channels1, Channels2: opts.Channels2,
			Kernel: 3, Hidden: opts.Hidden, HiddenLayers: opts.Layers,
		}, r)
	case ArchResMLP:
		return nn.NewResMLP(nn.ResMLPConfig{
			InDim: spec.Size(), OutDim: cells, Hidden: opts.Hidden, Blocks: opts.Blocks,
		}, r)
	default:
		return nil, fmt.Errorf("dlpic: unknown architecture %v", opts.Arch)
	}
}

// TrainSolver trains a DL field solver on a normalized corpus and wraps
// it for use in the PIC loop. The corpus must already be normalized
// (Dataset.Normalize); val may be nil.
func TrainSolver(arch SolverOpts, train, val *Dataset, tc TrainConfig) (*NNSolver, History, error) {
	if !train.Normalized {
		return nil, History{}, fmt.Errorf("dlpic: training corpus must be normalized first")
	}
	net, err := BuildNetwork(arch, train.Spec, train.Cells)
	if err != nil {
		return nil, History{}, err
	}
	var hist History
	if val != nil {
		hist, err = nn.Fit(net, train.Inputs, train.Targets, val.Inputs, val.Targets, tc)
	} else {
		hist, err = nn.Fit(net, train.Inputs, train.Targets, nil, nil, tc)
	}
	if err != nil {
		return nil, hist, err
	}
	solver, err := core.NewNNSolver(net, train.Spec, train.Norm, train.Cells)
	if err != nil {
		return nil, hist, err
	}
	return solver, hist, nil
}

// FitCheckpointed trains net on a normalized corpus with epoch-granular
// checkpointing: tc.Checkpoint.Path must be set, and after every
// tc.Checkpoint.Every-th epoch the complete training state is written
// atomically there. A fit killed at any epoch and continued with
// ResumeTraining produces bit-identical final weights and History to
// an uninterrupted one, at any tc.Workers value. val may be nil.
func FitCheckpointed(net *Network, train, val *Dataset, tc TrainConfig) (History, error) {
	if tc.Checkpoint.Path == "" {
		return History{}, fmt.Errorf("dlpic: FitCheckpointed needs TrainConfig.Checkpoint.Path")
	}
	if !train.Normalized {
		return History{}, fmt.Errorf("dlpic: training corpus must be normalized first")
	}
	xv, yv := valTensors(val)
	return nn.Fit(net, train.Inputs, train.Targets, xv, yv, tc)
}

// ResumeTraining continues a fit interrupted mid-training from
// tc.Checkpoint.Path: the network, optimizer state, shuffle cursor and
// history are restored from the checkpoint and training runs on to
// tc.Epochs (which may exceed the interrupted run's — it is the
// training target, not part of the checkpoint's identity). Everything
// else must match the interrupted run; a mismatch is caught by the
// checkpoint fingerprint and returned as an error.
func ResumeTraining(train, val *Dataset, tc TrainConfig) (*Network, History, error) {
	if !train.Normalized {
		return nil, History{}, fmt.Errorf("dlpic: training corpus must be normalized first")
	}
	xv, yv := valTensors(val)
	return nn.ResumeFit(train.Inputs, train.Targets, xv, yv, tc)
}

// valTensors unpacks an optional validation partition.
func valTensors(val *Dataset) (x, y *tensor.Tensor) {
	if val == nil {
		return nil, nil
	}
	return val.Inputs, val.Targets
}

// WrapSolver wraps a network with its preprocessing contract (binning
// spec and normalizer fixed at training time) as a deployable DL field
// solver for a grid of cells cells. TrainSolver does this implicitly;
// WrapSolver is the escape hatch for externally trained or synthetic
// networks.
func WrapSolver(net *Network, spec PhaseSpec, norm Normalizer, cells int) (*NNSolver, error) {
	return core.NewNNSolver(net, spec, norm, cells)
}

// EvaluateSolver computes the Table-I metrics of a solver's network on a
// normalized corpus.
func EvaluateSolver(s *NNSolver, ds *Dataset) Metrics {
	return nn.Evaluate(s.Net, ds.Inputs, ds.Targets, 64)
}

// ---------------------------------------------------------------------------
// Concurrent scenario sweeps

// Sweep engine re-exports (see internal/sweep for the full API).
type (
	// SweepScenario is one named PIC run of a sweep.
	SweepScenario = sweep.Scenario
	// SweepResult carries one scenario's recorder, growth fit and
	// conservation metrics.
	SweepResult = sweep.Result
	// SweepRunOpts bounds the worker pool and carries the method
	// registry (SweepRunOpts.Methods) a sweep compares side by side.
	SweepRunOpts = sweep.Options
	// SweepMethodSpec is one named entry of a sweep's method registry:
	// the traditional method (zero value), a per-scenario Factory, or a
	// shared batched Batcher backend.
	SweepMethodSpec = sweep.MethodSpec
	// BatchedSolver is a batched DL field-solve backend: one shared
	// network serving every scenario of a sweep through the
	// internal/batch inference server. Use it as the Batcher of a
	// SweepMethodSpec registry entry.
	BatchedSolver = batch.Solver
)

// SweepGrid builds the v0 x vth x repeats scenario cross product over a
// base configuration with seeds pre-derived in scenario order.
func SweepGrid(base Config, v0s, vths []float64, repeats, steps int, seed uint64) []SweepScenario {
	return sweep.Grid(base, v0s, vths, repeats, steps, seed)
}

// RunSweep fans the scenarios across a bounded worker pool and returns
// results in scenario order; per-scenario failures land in Result.Err.
func RunSweep(scenarios []SweepScenario, opts SweepRunOpts) []SweepResult {
	return sweep.Run(scenarios, opts)
}

// FirstSweepError returns the first per-scenario error of a sweep, or
// nil when every scenario succeeded.
func FirstSweepError(results []SweepResult) error {
	return sweep.FirstError(results)
}

// ---------------------------------------------------------------------------
// Resumable campaigns

// CampaignSpec defines a resumable campaign (internal/campaign): a
// scenario grid crossed with the method registry of Opts.Methods.
type CampaignSpec = campaign.Spec

// RunCampaign executes a multi-method sweep campaign, appending each
// completed scenario x method cell to the journal at journalPath as it
// finishes (empty path disables journaling). If the journal already
// holds completed cells — from an interrupted earlier run — they are
// restored instead of re-run, and the final result set is bit-identical
// (wall-clock Elapsed aside) to an uninterrupted campaign at any worker
// count.
func RunCampaign(journalPath string, spec CampaignSpec) ([]SweepResult, error) {
	return campaign.Run(journalPath, spec)
}

// ResumeCampaign continues an interrupted campaign from its journal; it
// errors when journalPath has no journal. Failed cells are retried up
// to spec.Retry.MaxAttempts times across resumes (transient failures
// also back off and retry within one run, per spec.Retry), then their
// recorded failure becomes final.
func ResumeCampaign(journalPath string, spec CampaignSpec) ([]SweepResult, error) {
	return campaign.Resume(journalPath, spec)
}

// CampaignDigest hashes the physics payload of a result set (everything
// except wall-clock timings); equal digests mean bit-identical results.
func CampaignDigest(results []SweepResult) string {
	return campaign.Digest(results)
}

// NewBatchedSolver starts a batched inference backend around a trained
// solver's network: set the result as the Batcher of a SweepMethodSpec
// registry entry and that method's field solves are stacked into shared
// PredictBatch calls,
// amortizing the network cost across the pool. Results are bit-identical
// to per-call NNSolver sweeps at any worker count and any maxBatch
// (<= 0 selects the default cap). Close the solver when the sweeps
// using it have returned.
func NewBatchedSolver(s *NNSolver, maxBatch int) (*BatchedSolver, error) {
	return batch.FromNNSolver(s, maxBatch)
}

// MeasureGrowthRate fits the exponential growth of the recorded
// mode-amplitude series using an automatic window between the noise
// floor and saturation.
func MeasureGrowthRate(rec *Recorder) (GrowthFit, error) {
	amps, err := rec.Series("mode")
	if err != nil {
		return GrowthFit{}, err
	}
	times := rec.Times()
	t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3)
	if err != nil {
		return GrowthFit{}, err
	}
	return diag.FitGrowthRate(times, amps, t0, t1)
}

// TheoreticalGrowthRate returns the cold two-stream linear growth rate
// of the monitored mode for cfg (the "Linear Theory" slope of Fig. 4).
func TheoreticalGrowthRate(cfg Config) float64 {
	ts := theory.TwoStream{Wp: cfg.Wp, V0: cfg.V0, Vth: cfg.Vth}
	k := 2 * math.Pi * float64(cfg.DiagMode) / cfg.Length
	return ts.GrowthRate(k)
}

// SaveNetwork writes a bare network's architecture and weights to w.
// Use SaveSolver for the deployable bundle that also carries the
// preprocessing contract.
func SaveNetwork(net *Network, w io.Writer) error { return nn.Save(net, w) }

// SaveSolver and LoadSolver persist a deployable solver bundle
// (architecture, weights, normalizer, binning spec).
func SaveSolver(s *NNSolver, cells int, path string) error {
	return core.SaveModelFile(s, cells, path)
}

// LoadSolver loads a solver bundle saved with SaveSolver.
func LoadSolver(path string) (*NNSolver, error) {
	return core.LoadModelFile(path)
}
