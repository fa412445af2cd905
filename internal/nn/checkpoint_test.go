package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// ckptTestData builds a small deterministic regression problem.
func ckptTestData(t *testing.T, n, in, out int, seed uint64) (x, y, xv, yv *tensor.Tensor) {
	t.Helper()
	r := rng.New(seed)
	fill := func(rows int) (*tensor.Tensor, *tensor.Tensor) {
		a := tensor.New(rows, in)
		b := tensor.New(rows, out)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = 0.3 * r.NormFloat64()
		}
		return a, b
	}
	x, y = fill(n)
	xv, yv = fill(n / 4)
	return
}

// ckptTestNet builds the small MLP all checkpoint tests train.
func ckptTestNet(t *testing.T, in, out int) *Network {
	t.Helper()
	net, err := NewMLP(MLPConfig{InDim: in, OutDim: out, Hidden: 16, HiddenLayers: 2}, rng.New(9))
	if err != nil {
		t.Fatalf("NewMLP: %v", err)
	}
	return net
}

// netBytes serializes weights for byte-exact comparison.
func netBytes(t *testing.T, net *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(net, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// sameHistory compares histories bit-exactly (NaN-safe: ValMAE is NaN
// without a validation set).
func sameHistory(a, b History) bool {
	if len(a.Epochs) != len(b.Epochs) {
		return false
	}
	f := math.Float64bits
	for i := range a.Epochs {
		p, q := a.Epochs[i], b.Epochs[i]
		if p.Epoch != q.Epoch || f(p.TrainLoss) != f(q.TrainLoss) ||
			f(p.ValMAE) != f(q.ValMAE) || f(p.ValMax) != f(q.ValMax) {
			return false
		}
	}
	return true
}

// ckptCfg returns the reference training configuration, checkpointing
// to path.
func ckptCfg(epochs int, path string, workers int, opt Optimizer) TrainConfig {
	return TrainConfig{
		Epochs: epochs, BatchSize: 16, Optimizer: opt, Loss: MSE{},
		Seed: 5, Workers: workers,
		Checkpoint: Checkpoint{Path: path},
	}
}

// TestResumeFit_BitIdenticalAtAnyEpochAndWorkers is the kill-and-resume
// property test: a fit interrupted after any epoch k (simulated by
// training with Epochs=k, which leaves exactly the checkpoint a kill
// after epoch k would) and resumed to the full budget yields
// byte-identical final weights and History to the uninterrupted fit,
// across resume worker counts 1, 2, 4 and 8.
func TestResumeFit_BitIdenticalAtAnyEpochAndWorkers(t *testing.T) {
	const n, in, out, epochs = 64, 12, 8, 6
	x, y, xv, yv := ckptTestData(t, n, in, out, 3)
	dir := t.TempDir()

	opt := func() Optimizer { return NewAdam(1e-3) }
	refPath := filepath.Join(dir, "ref.ckpt")
	refNet := ckptTestNet(t, in, out)
	refHist, err := Fit(refNet, x, y, xv, yv, ckptCfg(epochs, refPath, 1, opt()))
	if err != nil {
		t.Fatalf("reference fit: %v", err)
	}
	want := netBytes(t, refNet)
	name := opt().Name()

	for k := 1; k < epochs; k++ {
		for _, workers := range []int{1, 2, 4, 8} {
			path := filepath.Join(dir, "part.ckpt")
			partNet := ckptTestNet(t, in, out)
			// The interrupted run itself may use any worker count too.
			if _, err := Fit(partNet, x, y, xv, yv, ckptCfg(k, path, workers, opt())); err != nil {
				t.Fatalf("%s k=%d: partial fit: %v", name, k, err)
			}
			net, hist, err := ResumeFit(x, y, xv, yv, ckptCfg(epochs, path, workers, opt()))
			if err != nil {
				t.Fatalf("%s k=%d workers=%d: ResumeFit: %v", name, k, workers, err)
			}
			if !bytes.Equal(netBytes(t, net), want) {
				t.Fatalf("%s k=%d workers=%d: resumed weights diverge", name, k, workers)
			}
			if !sameHistory(hist, refHist) {
				t.Fatalf("%s k=%d workers=%d: resumed history diverges", name, k, workers)
			}
		}
	}
}

// TestResumeFit_CheckpointEveryCadence checks that a sparser cadence
// (Every > 1) still resumes bit-identically from the last written
// checkpoint, and that the final epoch is always checkpointed.
func TestResumeFit_CheckpointEveryCadence(t *testing.T) {
	const n, in, out, epochs = 48, 10, 6, 7
	x, y, _, _ := ckptTestData(t, n, in, out, 11)
	dir := t.TempDir()

	refPath := filepath.Join(dir, "ref.ckpt")
	refNet := ckptTestNet(t, in, out)
	refCfg := ckptCfg(epochs, refPath, 1, NewAdam(1e-3))
	refCfg.Checkpoint.Every = 3
	refHist, err := Fit(refNet, x, y, nil, nil, refCfg)
	if err != nil {
		t.Fatalf("reference fit: %v", err)
	}
	// Final epoch (7) is checkpointed even though 7 % 3 != 0.
	file, err := readCheckpoint(refPath)
	if err != nil {
		t.Fatalf("readCheckpoint: %v", err)
	}
	if file.Epoch != epochs {
		t.Fatalf("final checkpoint records epoch %d, want %d", file.Epoch, epochs)
	}

	// Interrupt after epoch 5: the last checkpoint on disk is epoch 3,
	// so the resume replays epochs 4-7.
	path := filepath.Join(dir, "part.ckpt")
	partNet := ckptTestNet(t, in, out)
	partCfg := ckptCfg(5, path, 2, NewAdam(1e-3))
	partCfg.Checkpoint.Every = 3
	if _, err := Fit(partNet, x, y, nil, nil, partCfg); err != nil {
		t.Fatalf("partial fit: %v", err)
	}
	resCfg := ckptCfg(epochs, path, 4, NewAdam(1e-3))
	resCfg.Checkpoint.Every = 3
	net, hist, err := ResumeFit(x, y, nil, nil, resCfg)
	if err != nil {
		t.Fatalf("ResumeFit: %v", err)
	}
	if !bytes.Equal(netBytes(t, net), netBytes(t, refNet)) {
		t.Fatal("sparse-cadence resume diverges from uninterrupted fit")
	}
	if !sameHistory(hist, refHist) {
		t.Fatal("sparse-cadence resume history diverges")
	}
}

// TestResumeFit_CompletedCheckpointRunsZeroEpochs: resuming a
// checkpoint that already records the full epoch budget restores the
// network and history without training.
func TestResumeFit_CompletedCheckpointRunsZeroEpochs(t *testing.T) {
	const n, in, out, epochs = 32, 8, 4, 3
	x, y, _, _ := ckptTestData(t, n, in, out, 13)
	path := filepath.Join(t.TempDir(), "done.ckpt")
	refNet := ckptTestNet(t, in, out)
	refHist, err := Fit(refNet, x, y, nil, nil, ckptCfg(epochs, path, 1, NewAdam(1e-3)))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	net, hist, err := ResumeFit(x, y, nil, nil, ckptCfg(epochs, path, 1, NewAdam(1e-3)))
	if err != nil {
		t.Fatalf("ResumeFit: %v", err)
	}
	if !bytes.Equal(netBytes(t, net), netBytes(t, refNet)) || !sameHistory(hist, refHist) {
		t.Fatal("zero-epoch resume does not restore the completed fit")
	}
}

// TestResumeFit_RejectsMismatchedConfig: any change to the training
// identity (batch size, seed, optimizer hyper-parameters, loss, data)
// is caught by the fingerprint.
func TestResumeFit_RejectsMismatchedConfig(t *testing.T) {
	const n, in, out = 32, 8, 4
	x, y, _, _ := ckptTestData(t, n, in, out, 17)
	path := filepath.Join(t.TempDir(), "fp.ckpt")
	net := ckptTestNet(t, in, out)
	if _, err := Fit(net, x, y, nil, nil, ckptCfg(2, path, 1, NewAdam(1e-3))); err != nil {
		t.Fatalf("fit: %v", err)
	}
	mutations := map[string]func(*TrainConfig){
		"batch":     func(c *TrainConfig) { c.BatchSize = 8 },
		"seed":      func(c *TrainConfig) { c.Seed = 6 },
		"optimizer": func(c *TrainConfig) { c.Optimizer = NewAdam(1e-2) },
		"loss":      func(c *TrainConfig) { c.Loss = MAE{} },
		"clipnorm":  func(c *TrainConfig) { c.ClipNorm = 1 },
		"shards":    func(c *TrainConfig) { c.Shards = 2 },
	}
	for name, mutate := range mutations {
		cfg := ckptCfg(4, path, 1, NewAdam(1e-3))
		mutate(&cfg)
		if _, _, err := ResumeFit(x, y, nil, nil, cfg); err == nil {
			t.Errorf("%s: ResumeFit accepted a mismatched configuration", name)
		}
	}
	// A larger epoch budget is the legitimate difference.
	if _, _, err := ResumeFit(x, y, nil, nil, ckptCfg(4, path, 1, NewAdam(1e-3))); err != nil {
		t.Errorf("epoch extension rejected: %v", err)
	}
	// Different data.
	x2, y2, _, _ := ckptTestData(t, n, in, out, 18)
	if _, _, err := ResumeFit(x2, y2, nil, nil, ckptCfg(4, path, 1, NewAdam(1e-3))); err == nil {
		t.Error("ResumeFit accepted different training data")
	}
}

// TestResumeFit_CorruptAndTornFiles: a truncated checkpoint errors out
// cleanly, and a stale .tmp left by a kill mid-write is ignored.
func TestResumeFit_CorruptAndTornFiles(t *testing.T) {
	const n, in, out = 32, 8, 4
	x, y, _, _ := ckptTestData(t, n, in, out, 19)
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.ckpt")
	net := ckptTestNet(t, in, out)
	refHist, err := Fit(net, x, y, nil, nil, ckptCfg(2, path, 1, NewAdam(1e-3)))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}

	// A stale tmp fragment (kill mid-write) must not affect the resume.
	if err := os.WriteFile(path+".tmp", []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hist, err := ResumeFit(x, y, nil, nil, ckptCfg(2, path, 1, NewAdam(1e-3)))
	if err != nil {
		t.Fatalf("ResumeFit with stale tmp: %v", err)
	}
	if !sameHistory(hist, refHist) {
		t.Fatal("stale tmp perturbed the resume")
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A decodable checkpoint whose permutation was corrupted (the
	// fingerprint covers configuration and data, not the payload) is
	// rejected instead of crashing or silently diverging the resume.
	var file ckptFile
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&file); err != nil {
		t.Fatal(err)
	}
	file.Perm[0] = file.Perm[1] // duplicate index: still in range, not a permutation
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeFit(x, y, nil, nil, ckptCfg(4, path, 1, NewAdam(1e-3))); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("corrupted permutation: got %v, want ErrCheckpointUnusable", err)
	}
	// Truncation is detected, not silently resumed.
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeFit(x, y, nil, nil, ckptCfg(4, path, 1, NewAdam(1e-3))); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("truncated checkpoint: got %v, want ErrCheckpointUnusable", err)
	}
	// Garbage is detected too.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeFit(x, y, nil, nil, ckptCfg(4, path, 1, NewAdam(1e-3))); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("garbage checkpoint: got %v, want ErrCheckpointUnusable", err)
	}
	// A missing checkpoint is an error (use Fit to start fresh).
	if _, _, err := ResumeFit(x, y, nil, nil, ckptCfg(4, filepath.Join(dir, "absent.ckpt"), 1, NewAdam(1e-3))); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("missing checkpoint: got %v, want ErrCheckpointUnusable", err)
	}
}

// TestFit_CheckpointingDoesNotPerturbTraining: the exact same weights
// come out with and without a checkpoint configured.
func TestFit_CheckpointingDoesNotPerturbTraining(t *testing.T) {
	const n, in, out, epochs = 48, 10, 6, 4
	x, y, xv, yv := ckptTestData(t, n, in, out, 23)
	plain := ckptTestNet(t, in, out)
	cfg := ckptCfg(epochs, "", 2, NewAdam(1e-3))
	plainHist, err := Fit(plain, x, y, xv, yv, cfg)
	if err != nil {
		t.Fatalf("plain fit: %v", err)
	}
	ck := ckptTestNet(t, in, out)
	cfg.Optimizer = NewAdam(1e-3) // fresh moments — the first fit consumed the old instance's
	cfg.Checkpoint = Checkpoint{Path: filepath.Join(t.TempDir(), "c.ckpt"), Every: 2}
	ckHist, err := Fit(ck, x, y, xv, yv, cfg)
	if err != nil {
		t.Fatalf("checkpointed fit: %v", err)
	}
	if !bytes.Equal(netBytes(t, plain), netBytes(t, ck)) || !sameHistory(plainHist, ckHist) {
		t.Fatal("checkpointing perturbed the training trajectory")
	}
}

// TestFit_CheckpointRequiresSerializableOptimizer: an optimizer without
// state capture is rejected up front, not at the first write.
func TestFit_CheckpointRequiresSerializableOptimizer(t *testing.T) {
	const n, in, out = 16, 8, 4
	x, y, _, _ := ckptTestData(t, n, in, out, 29)
	net := ckptTestNet(t, in, out)
	cfg := TrainConfig{
		Epochs: 1, BatchSize: 8, Optimizer: opaqueOptimizer{}, Loss: MSE{},
		Checkpoint: Checkpoint{Path: filepath.Join(t.TempDir(), "x.ckpt")},
	}
	if _, err := Fit(net, x, y, nil, nil, cfg); err == nil {
		t.Fatal("Fit checkpointed with a non-serializable optimizer")
	}
}

// opaqueOptimizer implements Optimizer but not optimizerCheckpointer.
type opaqueOptimizer struct{}

func (opaqueOptimizer) Step([]*Param) {}
func (opaqueOptimizer) Name() string  { return "opaque" }
