package experiments

import (
	"math"
	"strings"
	"testing"

	"dlpic/internal/sweep"
)

// tinyPipeline is shared across tests (built once; ~seconds).
var tinyPipe *Pipeline

func getPipeline(t *testing.T) *Pipeline {
	t.Helper()
	if tinyPipe != nil {
		return tinyPipe
	}
	p, err := New(Options{Tiny: true, Seed: 7})
	if err != nil {
		t.Fatalf("tiny pipeline: %v", err)
	}
	tinyPipe = p
	return p
}

func TestPipelineConstruction(t *testing.T) {
	p := getPipeline(t)
	if p.Train.N() == 0 || p.Val.N() == 0 || p.TestI.N() == 0 {
		t.Fatalf("empty partitions: %d/%d/%d", p.Train.N(), p.Val.N(), p.TestI.N())
	}
	if p.MLP == nil || p.CNN == nil {
		t.Fatal("solvers not trained")
	}
	if !p.Train.Normalized {
		t.Fatal("corpus not normalized")
	}
	// Training improved the loss.
	h := p.MLPHistory
	if len(h.Epochs) == 0 || h.Final().TrainLoss >= h.Epochs[0].TrainLoss {
		t.Fatalf("MLP training did not improve: %+v", h.Epochs)
	}
}

func TestTable1Runs(t *testing.T) {
	p := getPipeline(t)
	res, err := p.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !res.HaveCNN {
		t.Fatal("CNN missing from Table 1")
	}
	if res.SetIISamples == 0 {
		t.Fatal("empty test set II")
	}
	// At tiny scale the errors are larger than the paper's but must stay
	// far below the field scale for the table to be meaningful.
	if res.MLPSetI.MAE <= 0 || res.MLPSetI.MAE > res.MaxFieldInCorpus {
		t.Fatalf("MLP Set I MAE %v implausible (field scale %v)", res.MLPSetI.MAE, res.MaxFieldInCorpus)
	}
	if res.MaxFieldInCorpus <= 0 {
		t.Fatal("field scale not measured")
	}
	rows := res.Rows()
	if len(rows) != 9 {
		t.Fatalf("row count %d, want 9 (header + 8 metrics)", len(rows))
	}
	joined := ""
	for _, r := range rows {
		joined += strings.Join(r, " ") + "\n"
	}
	if !strings.Contains(joined, "MLP") || !strings.Contains(joined, "CNN") {
		t.Fatalf("rows missing architectures: %s", joined)
	}
}

func TestFig4Runs(t *testing.T) {
	p := getPipeline(t)
	res, err := p.Fig4(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traditional.Rec.Len() != 60 || res.DL.Rec.Len() != 60 {
		t.Fatal("missing samples")
	}
	if math.Abs(res.TheoryGamma-1/math.Sqrt(8)) > 1e-3 {
		t.Fatalf("theory gamma %v, want ~0.354", res.TheoryGamma)
	}
	if res.WarmGamma <= 0 || res.WarmGamma > res.TheoryGamma {
		t.Fatalf("warm gamma %v out of range (cold %v)", res.WarmGamma, res.TheoryGamma)
	}
	if len(res.DL.FinalX) == 0 || len(res.DL.FinalV) == 0 {
		t.Fatal("missing phase-space snapshot")
	}
}

func TestFig6Runs(t *testing.T) {
	p := getPipeline(t)
	res, err := p.Fig6(40)
	if err != nil {
		t.Fatal(err)
	}
	// Cold beams: starting spread is tiny (only the de-stagger half-kick
	// against the loading-noise field perturbs the exact +-v0 loading).
	if res.Traditional.VelocitySpreadStart > 0.01 {
		t.Fatalf("cold beam started warm: %v", res.Traditional.VelocitySpreadStart)
	}
	if res.Traditional.Rec.Len() != 40 || res.DL.Rec.Len() != 40 {
		t.Fatal("missing samples")
	}
}

func TestOracleRunMatchesTheory(t *testing.T) {
	p := getPipeline(t)
	res, err := p.OracleRun(150)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FitOK {
		t.Skip("noise-seeded tiny run produced no clean growth window")
	}
	want := 1 / math.Sqrt(8)
	if math.Abs(res.Growth.Gamma-want)/want > 0.35 {
		t.Fatalf("oracle growth %v too far from theory %v", res.Growth.Gamma, want)
	}
}

func TestValidationConfigUsesUnseenParameters(t *testing.T) {
	p := getPipeline(t)
	cfg := p.ValidationConfig(1)
	if cfg.V0 != 0.2 || cfg.Vth != 0.025 {
		t.Fatalf("validation config %+v, want v0=0.2 vth=0.025", cfg)
	}
	cold := p.ColdBeamConfig(1)
	if cold.V0 != 0.4 || cold.Vth != 0 {
		t.Fatalf("cold-beam config %+v, want v0=0.4 vth=0", cold)
	}
}

func TestPaperTable1Reference(t *testing.T) {
	// Sanity on the hard-coded paper numbers.
	if PaperTable1["MLP/MAE/I"] != 0.0019 || PaperTable1["CNN/Max/II"] != 0.073 {
		t.Fatal("paper reference values corrupted")
	}
	if PaperMaxField != 0.1 {
		t.Fatal("paper field scale corrupted")
	}
}

func TestResolveMethodNames(t *testing.T) {
	names, needMLP, needCNN, err := ResolveMethodNames("traditional, mlp,cnn")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != MethodTraditional || names[1] != MethodMLP || names[2] != MethodCNN {
		t.Fatalf("resolved %v", names)
	}
	if !needMLP || !needCNN {
		t.Fatalf("needMLP=%v needCNN=%v", needMLP, needCNN)
	}
	if _, needMLP, needCNN, err = ResolveMethodNames("traditional,oracle"); err != nil || needMLP || needCNN {
		t.Fatalf("model-free resolve: %v %v %v", err, needMLP, needCNN)
	}
	if _, _, _, err := ResolveMethodNames("nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, _, _, err := ResolveMethodNames("mlp,mlp"); err == nil {
		t.Fatal("duplicate method accepted")
	}
	if _, _, _, err := ResolveMethodNames(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
}

// TestMethodsModelFreeWithoutPipeline: traditional and oracle resolve
// with a nil pipeline, and the oracle factory builds a working method.
func TestMethodsModelFreeWithoutPipeline(t *testing.T) {
	specs, cleanup, err := MethodsWith(nil, []string{MethodTraditional, MethodOracle}, MethodConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if len(specs) != 2 || specs[0].Name != MethodTraditional || specs[1].Name != MethodOracle {
		t.Fatalf("specs %+v", specs)
	}
	if specs[0].Factory != nil || specs[0].Batcher != nil {
		t.Fatal("traditional spec must be the zero method")
	}
	sc := sweep.Scenario{Name: "s", Cfg: Options{}.BaseConfig(), Steps: 3}
	sc.Cfg.ParticlesPerCell = 20
	m, err := specs[1].Factory(sc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "dl-oracle" {
		t.Fatalf("oracle factory built %q", m.Name())
	}
	// DL methods without a pipeline provider are a hard error.
	if _, _, err := MethodsWith(nil, []string{MethodMLP}, MethodConfig{}); err == nil {
		t.Fatal("mlp resolved without a pipeline provider")
	}
}

// TestMethodsDLFromPipeline: the DL registry entries wrap the trained
// solvers, per-call and batched, and a tiny multi-method campaign runs
// bit-identically on both backends.
func TestMethodsDLFromPipeline(t *testing.T) {
	p := getPipeline(t)
	sc := sweep.Grid(p.Cfg, []float64{0.2}, []float64{0.01}, 1, 4, 13)
	run := func(batched bool) []sweep.Result {
		specs, cleanup, err := MethodsWith(FixedPipeline(p), []string{MethodTraditional, MethodMLP, MethodCNN}, MethodConfig{Batched: batched})
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		results := sweep.Run(sc, sweep.Options{Workers: 2, Methods: specs, SkipFit: true})
		if err := sweep.FirstError(results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	perCall := run(false)
	batched := run(true)
	if len(perCall) != 3 || len(batched) != 3 {
		t.Fatalf("cell counts %d/%d, want 3", len(perCall), len(batched))
	}
	for c := range perCall {
		if perCall[c].Method != batched[c].Method {
			t.Fatalf("cell %d method %q vs %q", c, perCall[c].Method, batched[c].Method)
		}
		for k := range perCall[c].Rec.Samples {
			if perCall[c].Rec.Samples[k] != batched[c].Rec.Samples[k] {
				t.Fatalf("cell %d (%s) sample %d: batched backend diverged", c, perCall[c].Method, k)
			}
		}
	}
}
