package dlpic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dlpic/internal/campaign"
	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/interp"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

// The determinism tests elsewhere compare a run with itself at another
// worker count; these pin values across commits, so a kernel rewrite
// that changes one bit of any trajectory fails here. The hashes were
// captured on linux/amd64 (no fused multiply-add); architectures where
// the compiler fuses x*y+z round differently and are skipped.

func hashFloats(slices ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range slices {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
}

func TestGoldenStateHashes(t *testing.T) {
	skipUnlessAMD64(t)
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	paper := func(seed uint64, scheme interp.Scheme) pic.Config {
		cfg := pic.Default()
		cfg.V0, cfg.Vth, cfg.ParticlesPerCell = 0.2, 0.025, 1000
		cfg.Seed = seed
		cfg.Scheme = scheme
		return cfg
	}
	oracle := func(binning interp.Scheme) func(pic.Config) (pic.FieldMethod, error) {
		return func(cfg pic.Config) (pic.FieldMethod, error) {
			spec := phasespace.DefaultSpec(cfg.Length)
			spec.Binning = binning
			return core.NewOracleSolver(cfg, spec)
		}
	}
	cases := []struct {
		name   string
		cfg    pic.Config
		method func(pic.Config) (pic.FieldMethod, error)
		want   string
	}{
		{"traditional/NGP", paper(11, interp.NGP), nil, "8073eda5ad9b1e3d"},
		{"traditional/CIC", paper(11, interp.CIC), nil, "a576de522fcb763d"},
		{"traditional/TSC", paper(11, interp.TSC), nil, "54b72441ff62e0f6"},
		{"oracle/NGP-binning", paper(12, interp.CIC), oracle(interp.NGP), "523f32674b967508"},
		{"oracle/CIC-binning", paper(12, interp.CIC), oracle(interp.CIC), "9912adbf959a8490"},
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			var method pic.FieldMethod
			if c.method != nil {
				m, err := c.method(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				method = m
			}
			sim, err := pic.New(c.cfg, method)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(200, nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := hashFloats(sim.P.X, sim.P.V, sim.E); got != c.want {
				t.Errorf("%s at GOMAXPROCS=%d: state hash %s, want %s", c.name, procs, got, c.want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// goldenBase is the configuration the corpus, bundle and campaign pins
// share.
func goldenBase() pic.Config {
	base := pic.Default()
	base.ParticlesPerCell = 100 // 6400 particles: the binning spans several chunks
	return base
}

func goldenCorpus(t *testing.T, workers int) *dataset.Dataset {
	t.Helper()
	base := goldenBase()
	ds, err := dataset.Generate(dataset.GenerateOpts{
		Base: base, V0s: []float64{0.15, 0.2}, Vths: []float64{0.01},
		Repeats: 2, Steps: 20, SampleEvery: 2,
		Spec: phasespace.DefaultSpec(base.Length), Seed: 13, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGoldenCorpusHash(t *testing.T) {
	skipUnlessAMD64(t)
	const want = "ef9bc2ad7c2b22ae"
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2} {
			ds := goldenCorpus(t, workers)
			if got := hashFloats(ds.Inputs.Data, ds.Targets.Data); got != want {
				t.Errorf("corpus at GOMAXPROCS=%d Workers=%d: hash %s, want %s", procs, workers, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGoldenBundleAndCampaign pins what the state and corpus hashes do
// not reach: training and bundle serialization (the sha256 of a small
// MLP fitted on the golden corpus, as core.SaveModelFile writes it) and the
// campaign arithmetic on top (the digest of 2 scenarios x traditional /
// oracle / that MLP, journaled).
func TestGoldenBundleAndCampaign(t *testing.T) {
	skipUnlessAMD64(t)
	const (
		wantBundle = "16385aabb35cfcc2aa72c309dc13c06b5bdf8d368a5a9ed40d1a960cf742e371"
		wantDigest = "bcfa4245b25fa2b1fd61d613ec3df5c4"
	)
	base := goldenBase()
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ds := goldenCorpus(t, 1)
		if err := ds.Normalize(); err != nil {
			t.Fatal(err)
		}
		net, err := nn.NewMLP(nn.MLPConfig{InDim: ds.Spec.Size(), OutDim: ds.Cells, Hidden: 16, HiddenLayers: 2}, rng.New(14))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Fit(net, ds.Inputs, ds.Targets, nil, nil,
			nn.TrainConfig{Epochs: 3, BatchSize: 8, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: 15}); err != nil {
			t.Fatal(err)
		}
		solver, err := core.NewNNSolver(net, ds.Spec, ds.Norm, ds.Cells)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "golden.dlpic")
		if err := core.SaveModelFile(solver, base.Cells, path); err != nil {
			t.Fatal(err)
		}
		bundle, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(bundle)
		if got := hex.EncodeToString(sum[:]); got != wantBundle {
			t.Errorf("bundle at GOMAXPROCS=%d: sha256 %s, want %s", procs, got, wantBundle)
		}

		results, err := campaign.Run(filepath.Join(dir, "golden.jsonl"), campaign.Spec{
			Scenarios: sweep.Grid(base, []float64{0.15, 0.2}, []float64{0.01}, 1, 20, 16),
			Opts: sweep.Options{Workers: 2, Methods: []sweep.MethodSpec{
				{Name: "traditional"},
				{Name: "oracle", Factory: func(sc sweep.Scenario) (pic.FieldMethod, error) {
					return core.NewOracleSolver(sc.Cfg, phasespace.DefaultSpec(sc.Cfg.Length))
				}},
				{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
					return solver.Clone()
				}},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sweep.FirstError(results); err != nil {
			t.Fatal(err)
		}
		if got := campaign.Digest(results); got != wantDigest {
			t.Errorf("campaign at GOMAXPROCS=%d: digest %s, want %s", procs, got, wantDigest)
		}
		runtime.GOMAXPROCS(prev)
	}
}
