package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dlpic/internal/campaign"
	"dlpic/internal/nn"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

// tinyBundleOpts is the smallest pipeline that exercises the bundle
// store (tiny scale, MLP only, silent).
func tinyBundleOpts(dir string, seed uint64) Options {
	return Options{Tiny: true, Seed: seed, SkipCNN: true, BundleDir: dir}
}

// mlpBytes serializes a pipeline's MLP weights for byte comparison.
func mlpBytes(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := nn.Save(p.MLP.Net, &buf); err != nil {
		t.Fatalf("save mlp: %v", err)
	}
	return buf.Bytes()
}

// bundleFiles lists the .dlpic bundles currently persisted in dir.
func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.dlpic"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBundleReuse_SkipsTraining: a second pipeline build with the same
// fingerprint reloads the persisted bundle — zero training epochs,
// bit-identical solver.
func TestBundleReuse_SkipsTraining(t *testing.T) {
	dir := t.TempDir()
	p1, err := New(tinyBundleOpts(dir, 1))
	if err != nil {
		t.Fatalf("first build: %v", err)
	}
	if len(p1.MLPHistory.Epochs) == 0 {
		t.Fatal("first build did not train")
	}
	if n := len(bundleFiles(t, dir)); n != 1 {
		t.Fatalf("expected 1 persisted bundle, found %d", n)
	}
	// The training checkpoint is retired once the bundle exists.
	if m, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(m) != 0 {
		t.Fatalf("training checkpoint not retired: %v", m)
	}

	p2, err := New(tinyBundleOpts(dir, 1))
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	if len(p2.MLPHistory.Epochs) != 0 {
		t.Fatalf("second build ran %d training epochs, want 0", len(p2.MLPHistory.Epochs))
	}
	if !bytes.Equal(mlpBytes(t, p1), mlpBytes(t, p2)) {
		t.Fatal("reloaded bundle differs from the trained solver")
	}
}

// TestBundleReuse_StaleFingerprintRetrains: changing anything the
// weights depend on (here the pipeline seed, which drives corpus
// shuffling and init) produces a different key, so the old bundle is
// ignored and training runs again.
func TestBundleReuse_StaleFingerprintRetrains(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(tinyBundleOpts(dir, 1)); err != nil {
		t.Fatalf("first build: %v", err)
	}
	p2, err := New(tinyBundleOpts(dir, 2))
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	if len(p2.MLPHistory.Epochs) == 0 {
		t.Fatal("stale-fingerprint build reused a bundle it must not see")
	}
	if n := len(bundleFiles(t, dir)); n != 2 {
		t.Fatalf("expected 2 persisted bundles (one per fingerprint), found %d", n)
	}
}

// TestBundleReuse_CorruptBundleFallsBack: garbage and truncated bundle
// files are logged and retrained through, with final results identical
// to a clean train.
func TestBundleReuse_CorruptBundleFallsBack(t *testing.T) {
	dir := t.TempDir()
	p1, err := New(tinyBundleOpts(dir, 1))
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	want := mlpBytes(t, p1)
	path := bundleFiles(t, dir)[0]

	corruptions := map[string]func() error{
		"garbage": func() error { return os.WriteFile(path, []byte("not a bundle"), 0o644) },
		"truncated": func() error {
			buf, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, buf[:len(buf)/3], 0o644)
		},
	}
	for name, corrupt := range corruptions {
		// Restore a clean persisted bundle, then corrupt it.
		if _, err := New(tinyBundleOpts(dir, 1)); err != nil {
			t.Fatalf("%s: rebuild: %v", name, err)
		}
		if err := corrupt(); err != nil {
			t.Fatalf("%s: corrupt: %v", name, err)
		}
		p, err := New(tinyBundleOpts(dir, 1))
		if err != nil {
			t.Fatalf("%s: build over corrupt bundle: %v", name, err)
		}
		if len(p.MLPHistory.Epochs) == 0 {
			t.Fatalf("%s: corrupt bundle was reused instead of retrained", name)
		}
		if !bytes.Equal(mlpBytes(t, p), want) {
			t.Fatalf("%s: retrain after corruption diverged from the clean train", name)
		}
	}
}

// TestBundleReuse_InterruptedTrainingResumes: an nn training checkpoint
// left by an interrupted pipeline build is resumed — not restarted —
// and the finished weights are identical to an uninterrupted build's.
func TestBundleReuse_InterruptedTrainingResumes(t *testing.T) {
	dir := t.TempDir()
	ref, err := New(tinyBundleOpts(dir, 1))
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	want := mlpBytes(t, ref)
	bundle := bundleFiles(t, dir)[0]
	ckpt := bundle[:len(bundle)-len(".dlpic")] + ".ckpt"

	// Simulate a kill mid-training: rerun the exact fit the pipeline
	// runs, but stop at epoch 4 of the tiny scale's 10, leaving the
	// checkpoint where the pipeline would find it; then remove the
	// bundle so the next build cannot shortcut past training.
	interruptedFit(t, dir, ckpt, 4)
	if err := os.Remove(bundle); err != nil {
		t.Fatal(err)
	}

	p2, err := New(tinyBundleOpts(dir, 1))
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	if got := len(p2.MLPHistory.Epochs); got != 10 {
		t.Fatalf("resumed build history has %d epochs, want the full 10", got)
	}
	if !bytes.Equal(mlpBytes(t, p2), want) {
		t.Fatal("resumed training diverged from the uninterrupted build")
	}
}

// interruptedFit reproduces the tiny pipeline's MLP fit up to `epochs`
// epochs with a checkpoint at path — exactly the state a kill during a
// pipeline build leaves behind. The corpus partitions come from a
// bundle-reusing build (no extra training).
func interruptedFit(t *testing.T, dir, path string, epochs int) {
	t.Helper()
	p, err := New(tinyBundleOpts(dir, 1))
	if err != nil {
		t.Fatalf("corpus build: %v", err)
	}
	arch := nn.MLPConfig{InDim: p.Spec.Size(), OutDim: p.Cfg.Cells, Hidden: 32, HiddenLayers: 3}
	net, err := nn.NewMLP(arch, rng.New(p.Opts.Seed+2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = nn.Fit(net, p.Train.Inputs, p.Train.Targets, p.Val.Inputs, p.Val.Targets, nn.TrainConfig{
		Epochs: epochs, BatchSize: 64, Optimizer: nn.NewAdam(1e-3),
		Loss: nn.MSE{}, Seed: p.Opts.Seed + 3,
		Checkpoint: nn.Checkpoint{Path: path},
	})
	if err != nil {
		t.Fatalf("interrupted fit: %v", err)
	}
}

// TestBundleReuse_BundlePresentJournalMissing: deleting the campaign
// journal but keeping the artifact directory re-runs every cell with
// the reloaded bundle — zero training epochs and a bit-identical
// campaign digest.
func TestBundleReuse_BundlePresentJournalMissing(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "scan.jsonl")
	artifacts := campaign.ArtifactDir(journal)

	runCampaign := func() (string, *Pipeline) {
		var built *Pipeline
		provider := func() (*Pipeline, error) {
			if built == nil {
				p, err := New(tinyBundleOpts(artifacts, 1))
				if err != nil {
					return nil, err
				}
				built = p
			}
			return built, nil
		}
		specs, cleanup, err := MethodsWith(provider, []string{MethodMLP}, MethodConfig{})
		if err != nil {
			t.Fatalf("Methods: %v", err)
		}
		defer cleanup()
		base := Options{Tiny: true}.BaseConfig()
		results, err := campaign.Run(journal, campaign.Spec{
			Scenarios: sweep.Grid(base, []float64{0.2}, []float64{0.01}, 1, 10, 1),
			Opts:      sweep.Options{Workers: 2, Methods: specs},
		})
		if err != nil {
			t.Fatalf("campaign.Run: %v", err)
		}
		if err := sweep.FirstError(results); err != nil {
			t.Fatalf("cell failed: %v", err)
		}
		return campaign.Digest(results), built
	}

	d1, p1 := runCampaign()
	if p1 == nil || len(p1.MLPHistory.Epochs) == 0 {
		t.Fatal("first campaign did not train")
	}
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	d2, p2 := runCampaign()
	if p2 == nil {
		t.Fatal("second campaign never built a pipeline (journal was deleted, cells must re-run)")
	}
	if len(p2.MLPHistory.Epochs) != 0 {
		t.Fatalf("second campaign ran %d training epochs, want 0 (bundle present)", len(p2.MLPHistory.Epochs))
	}
	if d1 != d2 {
		t.Fatalf("digests diverge across journal loss: %s vs %s", d1, d2)
	}
}

// TestBundleSingleflight_ConcurrentBuildsTrainOnce: two pipeline builds
// racing on one training fingerprint in one bundle directory — the
// shape of two concurrent service campaigns needing the same model —
// train exactly once. The second build waits on the fingerprint's
// training lock and then loads the bundle the first persisted: one
// .dlpic file, one non-empty training history, byte-identical weights.
func TestBundleSingleflight_ConcurrentBuildsTrainOnce(t *testing.T) {
	dir := t.TempDir()
	pipes := make([]*Pipeline, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range pipes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pipes[i], errs[i] = New(tinyBundleOpts(dir, 1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	if n := len(bundleFiles(t, dir)); n != 1 {
		t.Fatalf("concurrent same-fingerprint builds persisted %d bundles, want 1", n)
	}
	trainedN := 0
	for _, p := range pipes {
		if len(p.MLPHistory.Epochs) > 0 {
			trainedN++
		}
	}
	if trainedN != 1 {
		t.Fatalf("%d of 2 concurrent builds trained, want exactly 1", trainedN)
	}
	if !bytes.Equal(mlpBytes(t, pipes[0]), mlpBytes(t, pipes[1])) {
		t.Fatal("concurrent builds disagree on MLP weights")
	}
}
