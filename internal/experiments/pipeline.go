// Package experiments reproduces the paper's evaluation: Table I (MAE /
// max error of the MLP and CNN on seen and unseen parameters) and
// Figures 4-6 (two-stream validation against linear theory, energy and
// momentum conservation, cold-beam stability). cmd/experiments renders
// the results; tools/bench reuses the same pipeline.
//
// Two scales are provided. The scaled configuration (default) preserves
// the experiment structure — same box, same time step, same sweep axes
// structure, same architectures — at sizes that train in minutes on one
// CPU core. The paper configuration (-paper) matches the original sizes
// (64x64 phase space, 1000 particles/cell, 3x1024 MLP, 40,000-sample
// corpus) and takes correspondingly longer.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
)

// Options selects the pipeline scale and reporting sinks.
type Options struct {
	// Paper selects the full paper-sized configuration.
	Paper bool
	// Tiny selects a seconds-scale configuration for tests and
	// benchmark fixtures (takes precedence over Paper).
	Tiny bool
	// Seed drives all randomness.
	Seed uint64
	// Log receives progress lines (nil silences).
	Log io.Writer
	// SkipCNN skips CNN training (the slowest stage); Table I then
	// reports only the MLP rows.
	SkipCNN bool
	// ModelDir, when non-empty, receives the trained solver bundles
	// (mlp.dlpic, cnn.dlpic) for reuse with cmd/picrun.
	ModelDir string
	// LoadModels, when non-empty, loads previously saved bundles from
	// the directory instead of training (corpus generation still runs —
	// it is cheap and Table I needs the test partitions).
	LoadModels string
	// BundleDir, when non-empty, makes training resumable and
	// reusable: trained solvers are persisted there as model bundles
	// keyed by their training fingerprint (corpus definition +
	// architecture + training configuration), a matching bundle is
	// reloaded instead of retrained (zero training epochs), and while
	// a fit is in flight an epoch-granular nn training checkpoint
	// under the same key lets an interrupted build resume
	// mid-training. Stale or corrupt artifacts fall back to a clean
	// retrain with a logged reason. Campaigns point this at the
	// journal's artifact directory (campaign.ArtifactDir). Unlike
	// LoadModels, reuse is fingerprint-checked — a bundle trained
	// under different settings is never picked up. LoadModels takes
	// precedence: with it set, training is bypassed and the bundle
	// store is never consulted.
	BundleDir string
	// TrainWorkers is the data-parallel worker count of the sharded
	// training engine (0 = GOMAXPROCS). Trained weights, losses and
	// histories are bit-identical for any value.
	TrainWorkers int
}

// Pipeline holds the shared state of the evaluation: the corpus, the
// trained solvers, and the base configuration.
type Pipeline struct {
	Opts Options
	// Cfg is the base PIC configuration (paper §III box).
	Cfg pic.Config
	// Spec is the phase-space binning (64x64 over [-0.8, 0.8]).
	Spec phasespace.GridSpec

	// Corpus partitions (normalized).
	Train, Val, TestI *dataset.Dataset

	// Trained solvers.
	MLP *core.NNSolver
	CNN *core.NNSolver

	// Training histories.
	MLPHistory, CNNHistory nn.History

	// BundlePaths maps a DL method name ("mlp", "cnn") to the persisted
	// model bundle backing it, populated when Options.BundleDir is set
	// (whether the build trained fresh or reused a persisted bundle).
	// Distributed campaigns turn these into dist.BundleRef wire
	// identities so workers can fetch the trained models.
	BundlePaths map[string]string

	// MaxField is the largest |E| in the corpus targets (the paper's
	// ~0.1 reference scale).
	MaxField float64

	// Timings.
	GenTime, MLPTrainTime, CNNTrainTime time.Duration
}

// logf writes a progress line when a log sink is configured.
func (p *Pipeline) logf(format string, args ...any) {
	if p.Opts.Log != nil {
		fmt.Fprintf(p.Opts.Log, format+"\n", args...)
	}
}

// Scale identifies a pipeline size.
type Scale int

// Pipeline scales, from smallest to the paper's original sizes.
const (
	ScaleTiny Scale = iota
	ScaleDefault
	ScalePaper
)

func (o Options) scale() Scale {
	switch {
	case o.Tiny:
		return ScaleTiny
	case o.Paper:
		return ScalePaper
	default:
		return ScaleDefault
	}
}

// BaseConfig returns the base PIC configuration the pipeline of these
// options would use — a pure function of the scale, available without
// generating a corpus or training. Campaign scans use it to build the
// scenario list up front and defer pipeline construction until a DL
// cell actually runs.
func (o Options) BaseConfig() pic.Config { return baseConfig(o.scale()) }

func baseConfig(sc Scale) pic.Config {
	cfg := pic.Default()
	switch sc {
	case ScalePaper:
		// Paper values: 1000 particles/cell.
	case ScaleDefault:
		// Scaled: fewer macro-particles per cell; everything else
		// (box, cells, dt) stays at the paper values. The particle count
		// must match between corpus generation and the DL-PIC runs
		// because the histogram magnitudes (and hence the fitted
		// normalizer) scale with it.
		cfg.ParticlesPerCell = 250
	case ScaleTiny:
		cfg.ParticlesPerCell = 30
	}
	return cfg
}

func sweepOpts(cfg pic.Config, spec phasespace.GridSpec, sc Scale, seed uint64) dataset.GenerateOpts {
	switch sc {
	case ScalePaper:
		return dataset.PaperSweep(cfg, spec, seed)
	case ScaleTiny:
		return dataset.GenerateOpts{
			Base:    cfg,
			V0s:     []float64{0.15, 0.2},
			Vths:    []float64{0.0},
			Repeats: 1, Steps: 80, SampleEvery: 2,
			Spec: spec, Seed: seed,
		}
	default:
		// All five of the paper's v0 values with three of its vth values
		// at reduced repeats — the corpus structure of §IV-1 at 1/13 of
		// the samples.
		return dataset.GenerateOpts{
			Base:    cfg,
			V0s:     []float64{0.05, 0.1, 0.15, 0.18, 0.3},
			Vths:    []float64{0.0, 0.005, 0.01},
			Repeats: 2, Steps: 200, SampleEvery: 2,
			Spec: spec, Seed: seed,
		}
	}
}

// New generates the corpus and trains the solvers.
func New(opts Options) (*Pipeline, error) {
	p := &Pipeline{Opts: opts}
	sc := opts.scale()
	p.Cfg = baseConfig(sc)
	p.Spec = phasespace.DefaultSpec(p.Cfg.Length)

	// --- Corpus ---------------------------------------------------------
	sweep := sweepOpts(p.Cfg, p.Spec, sc, opts.Seed)
	totalRuns := len(sweep.V0s) * len(sweep.Vths) * sweep.Repeats
	p.logf("[gen] corpus: %d runs x %d steps (sample every %d), %d particles each",
		totalRuns, sweep.Steps, sweep.SampleEvery, p.Cfg.NumParticles())
	sweep.Progress = func(done, total int) {
		if done%4 == 0 || done == total {
			p.logf("[gen]   %d/%d runs", done, total)
		}
	}
	//determlint:ignore nondet GenTime is log-only stage telemetry; it never reaches a digest, journal or fingerprint
	start := time.Now()
	ds, err := dataset.Generate(sweep)
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus generation: %w", err)
	}
	p.GenTime = time.Since(start) //determlint:ignore nondet GenTime is log-only telemetry
	p.logf("[gen] %d samples in %v", ds.N(), p.GenTime.Round(time.Second))
	if err := ds.Normalize(); err != nil {
		return nil, err
	}
	for _, v := range ds.Targets.Data {
		if a := v; a < 0 {
			a = -a
			if a > p.MaxField {
				p.MaxField = a
			}
		} else if a > p.MaxField {
			p.MaxField = a
		}
	}
	ds.Shuffle(opts.Seed + 1)
	// Paper split ratio: 38000/1000/1000 of 40000 => 95% / 2.5% / 2.5%.
	nVal := ds.N() / 40
	if nVal < 16 {
		nVal = 16
	}
	nTest := nVal
	p.Train, p.Val, p.TestI, err = ds.Split(ds.N()-nVal-nTest, nVal, nTest)
	if err != nil {
		return nil, err
	}

	if opts.LoadModels != "" {
		return p, p.loadModels(opts.LoadModels)
	}

	var store *bundleStore
	if opts.BundleDir != "" {
		store = &bundleStore{dir: opts.BundleDir, logf: p.logf}
	}

	// --- MLP -------------------------------------------------------------
	mlpArch := nn.MLPConfig{InDim: p.Spec.Size(), OutDim: p.Cfg.Cells, Hidden: 192, HiddenLayers: 3}
	mlpEpochs, cnnEpochs := 60, 25
	// The paper trains with Adam at lr 1e-4 for 150/100 epochs; the
	// scaled schedules compensate their shorter epoch budgets with a
	// higher rate.
	lr := 1e-3
	switch sc {
	case ScalePaper:
		mlpArch.Hidden = 1024
		mlpEpochs, cnnEpochs = 150, 100
		lr = 1e-4
	case ScaleTiny:
		mlpArch.Hidden = 32
		mlpEpochs, cnnEpochs = 10, 4
	}
	//determlint:ignore nondet MLPTrainTime is log-only stage telemetry, never digested
	start = time.Now()
	p.MLP, p.MLPHistory, err = p.trainSolver(store, "mlp", sweep, ds, mlpArch,
		func() (*nn.Network, error) {
			net, err := nn.NewMLP(mlpArch, rng.New(opts.Seed+2))
			if err == nil {
				p.logf("[mlp] %s", net.Summary())
			}
			return net, err
		},
		nn.TrainConfig{
			Epochs: mlpEpochs, BatchSize: 64, Optimizer: nn.NewAdam(lr),
			Loss: nn.MSE{}, Seed: opts.Seed + 3, Log: opts.Log, LogEvery: 5,
			Workers: opts.TrainWorkers,
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: MLP training: %w", err)
	}
	p.MLPTrainTime = time.Since(start) //determlint:ignore nondet MLPTrainTime is log-only telemetry
	if n := len(p.MLPHistory.Epochs); n > 0 {
		p.logf("[mlp] trained in %v (val MAE %.3g)", p.MLPTrainTime.Round(time.Second), p.MLPHistory.Final().ValMAE)
	}

	// --- CNN -------------------------------------------------------------
	if !opts.SkipCNN {
		cnnArch := nn.CNNConfig{
			H: p.Spec.NV, W: p.Spec.NX, OutDim: p.Cfg.Cells,
			Channels1: 4, Channels2: 8, Kernel: 3, Hidden: 128, HiddenLayers: 3,
		}
		switch sc {
		case ScalePaper:
			cnnArch.Channels1, cnnArch.Channels2, cnnArch.Hidden = 16, 32, 1024
		case ScaleTiny:
			cnnArch.Channels1, cnnArch.Channels2, cnnArch.Hidden = 2, 2, 32
		}
		//determlint:ignore nondet CNNTrainTime is log-only stage telemetry, never digested
		start = time.Now()
		p.CNN, p.CNNHistory, err = p.trainSolver(store, "cnn", sweep, ds, cnnArch,
			func() (*nn.Network, error) {
				net, err := nn.NewCNN(cnnArch, rng.New(opts.Seed+4))
				if err == nil {
					p.logf("[cnn] %s", net.Summary())
				}
				return net, err
			},
			nn.TrainConfig{
				Epochs: cnnEpochs, BatchSize: 64, Optimizer: nn.NewAdam(lr),
				Loss: nn.MSE{}, Seed: opts.Seed + 5, Log: opts.Log, LogEvery: 5,
				Workers: opts.TrainWorkers,
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: CNN training: %w", err)
		}
		p.CNNTrainTime = time.Since(start) //determlint:ignore nondet CNNTrainTime is log-only telemetry
		if n := len(p.CNNHistory.Epochs); n > 0 {
			p.logf("[cnn] trained in %v (val MAE %.3g)", p.CNNTrainTime.Round(time.Second), p.CNNHistory.Final().ValMAE)
		}
	}
	if opts.ModelDir != "" {
		if err := os.MkdirAll(opts.ModelDir, 0o755); err != nil {
			return nil, err
		}
		if err := core.SaveModelFile(p.MLP, p.Cfg.Cells, filepath.Join(opts.ModelDir, "mlp.dlpic")); err != nil {
			return nil, err
		}
		if p.CNN != nil {
			if err := core.SaveModelFile(p.CNN, p.Cfg.Cells, filepath.Join(opts.ModelDir, "cnn.dlpic")); err != nil {
				return nil, err
			}
		}
		p.logf("[models] saved to %s", opts.ModelDir)
	}
	return p, nil
}

// loadModels restores previously exported solver bundles.
func (p *Pipeline) loadModels(dir string) error {
	mlp, err := core.LoadModelFile(filepath.Join(dir, "mlp.dlpic"))
	if err != nil {
		return fmt.Errorf("experiments: load mlp: %w", err)
	}
	p.MLP = mlp
	p.logf("[models] loaded MLP from %s", dir)
	if !p.Opts.SkipCNN {
		cnn, err := core.LoadModelFile(filepath.Join(dir, "cnn.dlpic"))
		if err != nil {
			return fmt.Errorf("experiments: load cnn: %w", err)
		}
		p.CNN = cnn
		p.logf("[models] loaded CNN from %s", dir)
	}
	return nil
}

// ValidationConfig returns the configuration of the paper's §V
// validation run: v0 = 0.2, vth = 0.025 — parameters excluded from the
// training sweep.
func (p *Pipeline) ValidationConfig(seed uint64) pic.Config {
	cfg := p.Cfg
	cfg.V0 = 0.2
	cfg.Vth = 0.025
	cfg.Seed = seed
	return cfg
}

// ColdBeamConfig returns the configuration of the paper's Fig. 6 run:
// v0 = 0.4, vth = 0 (linearly stable, numerically fragile).
func (p *Pipeline) ColdBeamConfig(seed uint64) pic.Config {
	cfg := p.Cfg
	cfg.V0 = 0.4
	cfg.Vth = 0.0
	cfg.Seed = seed
	return cfg
}
