package experiments

import (
	"strings"
	"testing"

	"dlpic/internal/core"
	"dlpic/internal/nn"
	"dlpic/internal/pic"
)

func TestTable1RowsWithoutCNN(t *testing.T) {
	res := Table1Result{
		MLPSetI:  nn.Metrics{MAE: 0.01, MaxErr: 0.1},
		MLPSetII: nn.Metrics{MAE: 0.02, MaxErr: 0.2},
		HaveCNN:  false,
	}
	rows := res.Rows()
	if len(rows) != 5 {
		t.Fatalf("rows without CNN = %d, want 5", len(rows))
	}
	joined := ""
	for _, r := range rows {
		joined += strings.Join(r, " ") + "\n"
	}
	if strings.Contains(joined, "CNN") {
		t.Fatalf("CNN rows present despite HaveCNN=false:\n%s", joined)
	}
	if !strings.Contains(joined, "0.01") || !strings.Contains(joined, "0.2") {
		t.Fatalf("measured values missing:\n%s", joined)
	}
}

func TestSkipCNNPipeline(t *testing.T) {
	p, err := New(Options{Tiny: true, Seed: 3, SkipCNN: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.CNN != nil {
		t.Fatal("CNN trained despite SkipCNN")
	}
	res, err := p.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if res.HaveCNN {
		t.Fatal("Table 1 claims CNN without one")
	}
	if res.MLPSetI.MAE <= 0 {
		t.Fatal("MLP metrics missing")
	}
}

func TestModelExportAndReload(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Options{Tiny: true, Seed: 4, SkipCNN: true, ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The bundle must reload into an equivalent solver.
	loaded, err := core.LoadModelFile(dir + "/mlp.dlpic")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pic.New(p.Cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1 := make([]float64, p.Cfg.Cells)
	e2 := make([]float64, p.Cfg.Cells)
	if err := p.MLP.ComputeField(sim, e1); err != nil {
		t.Fatal(err)
	}
	if err := loaded.ComputeField(sim, e2); err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("exported model differs at %d", i)
		}
	}
	// And a fresh pipeline can adopt it via LoadModels.
	p2, err := New(Options{Tiny: true, Seed: 4, SkipCNN: true, LoadModels: dir})
	if err != nil {
		t.Fatal(err)
	}
	if p2.MLP == nil {
		t.Fatal("LoadModels did not populate the MLP")
	}
	if _, err := New(Options{Tiny: true, Seed: 4, SkipCNN: true, LoadModels: t.TempDir()}); err == nil {
		t.Fatal("missing bundle dir should fail")
	}
}
