package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// Training checkpoints make Fit itself resumable: after every k-th
// epoch the complete training state — network weights, optimizer
// moments, the RNG/shuffle cursor and the History so far — is written
// atomically to one file, and ResumeFit continues from it so that a
// fit killed at any epoch and resumed produces bit-identical final
// weights and History to an uninterrupted one, at any Workers value.
//
// The file is guarded by a fingerprint over everything the trajectory
// depends on (data, batch size, optimizer and loss hyper-parameters,
// shuffle seed, clip norm, shard override — but NOT Epochs, which is a
// target, not an identity: resuming with a larger epoch budget is how
// training is extended). Resuming under a different configuration is
// an error, never a silent divergence.

// Checkpoint configures epoch-granular training checkpoints; set it as
// TrainConfig.Checkpoint. The zero value disables checkpointing.
type Checkpoint struct {
	// Path is the checkpoint file. Writes go through a temporary file
	// and an atomic rename, so a kill mid-write never corrupts an
	// existing checkpoint — at worst it leaves a stale Path+".tmp".
	Path string
	// Every writes a checkpoint after every Every-th epoch (<= 0
	// selects 1). The final epoch is always checkpointed, so a
	// completed fit's checkpoint restores to a zero-epoch resume.
	Every int
}

// enabled reports whether checkpointing is configured.
func (c Checkpoint) enabled() bool { return c.Path != "" }

// due reports whether a checkpoint is written after the given epoch
// (0-based) under an e-epoch budget. The cadence depends only on the
// absolute epoch index, so an interrupted run and its resume agree on
// which epochs were checkpointed.
func (c Checkpoint) due(epoch, epochs int) bool {
	every := c.Every
	if every <= 0 {
		every = 1
	}
	return (epoch+1)%every == 0 || epoch+1 == epochs
}

// ckptFile is the gob-encoded checkpoint payload.
type ckptFile struct {
	Version     int
	Fingerprint string
	// Epoch is the number of completed epochs.
	Epoch int
	// Net is the full architecture + weights snapshot (the model-file
	// format of Save).
	Net netFile
	// Opt is the optimizer state in Params() order.
	Opt optimizerState
	// RNG is the shuffle stream state after Epoch epochs.
	RNG rng.State
	// Perm is the sample permutation after Epoch in-place shuffles.
	Perm []int
	// Hist is the training history so far.
	Hist History
}

const ckptVersion = 1

// ErrCheckpointUnusable marks ResumeFit failures caused by the
// checkpoint itself — missing, corrupt, or written by a different
// training configuration. Callers may treat it as "retrain from
// scratch"; errors from the resumed training run are returned without
// this mark, since retrying them discards restored epochs only to hit
// the same failure again.
var ErrCheckpointUnusable = errors.New("nn: checkpoint unusable")

// init pins the process-global gob type ids of every payload this
// package serializes by encoding zero values to io.Discard in a fixed
// order at package init. encoding/gob assigns type ids from a global
// counter at first encode, so without this, identical values could
// serialize to different bytes depending on what else the process
// encoded earlier — breaking the byte-identity contract CI enforces on
// model bundles and training checkpoints (a resumed process decodes a
// checkpoint before writing its bundle; an uninterrupted one does
// not). internal/core pins its bundle type the same way.
func init() {
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(netFile{Layers: []layerSpec{{}}})
	_ = enc.Encode(ckptFile{})
}

// trainFingerprint hashes everything the training trajectory depends
// on besides the epoch budget: the data (shapes and bytes), batch
// size, shuffle seed, clip norm, shard override, and the optimizer and
// loss hyper-parameters. Workers and logging are excluded — they never
// change the weights (the sharded engine's determinism contract), so a
// checkpoint written at one worker count resumes cleanly at another.
func trainFingerprint(x, y, xVal, yVal *tensor.Tensor, cfg TrainConfig) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	str := func(s string) { u64(uint64(len(s))); h.Write([]byte(s)) }
	u64(uint64(cfg.BatchSize))
	u64(cfg.Seed)
	u64(math.Float64bits(cfg.ClipNorm))
	u64(uint64(cfg.Shards))
	str(OptimizerDesc(cfg.Optimizer))
	str(fmt.Sprintf("%T|%+v", cfg.Loss, cfg.Loss))
	hashTensor(h, x)
	hashTensor(h, y)
	hashTensor(h, xVal)
	hashTensor(h, yVal)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// hashTensor folds a tensor's shape and exact float bits into h (a nil
// tensor hashes as a distinct marker, so adding or dropping the
// validation set changes the fingerprint). Data is packed into a chunk
// buffer so paper-scale corpora hash at streaming speed instead of
// paying one hash.Write call per float.
func hashTensor(h hash.Hash, t *tensor.Tensor) {
	var buf [8]byte
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	if t == nil {
		u64(^uint64(0))
		return
	}
	u64(uint64(len(t.Shape)))
	for _, d := range t.Shape {
		u64(uint64(d))
	}
	const chunkFloats = 8192
	chunk := make([]byte, 0, 8*chunkFloats)
	for i, v := range t.Data {
		chunk = binary.LittleEndian.AppendUint64(chunk, math.Float64bits(v))
		if len(chunk) == cap(chunk) || i == len(t.Data)-1 {
			h.Write(chunk)
			chunk = chunk[:0]
		}
	}
}

// writeCheckpoint serializes one checkpoint atomically: encode to
// Path+".tmp", sync, rename. A kill at any instant leaves either the
// previous checkpoint or the new one, never a torn file.
func writeCheckpoint(c Checkpoint, file ckptFile) error {
	tmp := c.Path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("nn: checkpoint: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(file); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("nn: encode checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("nn: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nn: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.Path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nn: install checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads and structurally validates a checkpoint file.
func readCheckpoint(path string) (ckptFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return ckptFile{}, err
	}
	defer f.Close()
	var file ckptFile
	if err := gob.NewDecoder(f).Decode(&file); err != nil {
		return ckptFile{}, fmt.Errorf("nn: decode checkpoint %s: %w", path, err)
	}
	if file.Version != ckptVersion {
		return ckptFile{}, fmt.Errorf("nn: unsupported checkpoint version %d", file.Version)
	}
	if file.Epoch <= 0 {
		return ckptFile{}, fmt.Errorf("nn: checkpoint records %d completed epochs", file.Epoch)
	}
	if len(file.Hist.Epochs) != file.Epoch {
		return ckptFile{}, fmt.Errorf("nn: checkpoint history has %d epochs, header says %d", len(file.Hist.Epochs), file.Epoch)
	}
	return file, nil
}

// restorePerm validates that a checkpoint's shuffle permutation really
// is a permutation of [0, n) and returns a private copy — gob happily
// decodes a corrupted Perm (the fingerprint covers the configuration
// and data, not the checkpoint payload), and an out-of-range or
// duplicated index would crash or silently diverge the resumed fit.
func restorePerm(stored []int, n int) ([]int, error) {
	if len(stored) != n {
		return nil, fmt.Errorf("nn: checkpoint permutation has %d entries, data has %d rows", len(stored), n)
	}
	seen := make([]bool, n)
	for _, v := range stored {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("nn: checkpoint permutation is not a permutation of [0,%d)", n)
		}
		seen[v] = true
	}
	return append([]int(nil), stored...), nil
}

// ResumeFit continues an interrupted Fit from cfg.Checkpoint.Path: it
// restores the network, optimizer state, shuffle cursor and History
// written after the last completed epoch, then trains on to
// cfg.Epochs. The resumed fit's final weights and History are
// bit-identical to an uninterrupted Fit with the same configuration,
// at any cfg.Workers value — Workers may differ between the
// interrupted run and the resume.
//
// cfg must match the configuration of the interrupted fit (same data,
// batch size, seed, optimizer and loss hyper-parameters); a mismatch
// is detected through the checkpoint fingerprint and returned as an
// error. cfg.Epochs is the one legitimate difference: it is the
// training target, so a resume may extend it. When the checkpoint
// already records >= cfg.Epochs completed epochs, ResumeFit returns
// the restored network and history without training (zero epochs run).
func ResumeFit(x, y, xVal, yVal *tensor.Tensor, cfg TrainConfig) (*Network, History, error) {
	if !cfg.Checkpoint.enabled() {
		return nil, History{}, fmt.Errorf("nn: ResumeFit needs TrainConfig.Checkpoint.Path")
	}
	if err := validateFit(x, y, xVal, yVal, cfg); err != nil {
		return nil, History{}, err
	}
	// Failures from here until training starts are the checkpoint's
	// fault and carry ErrCheckpointUnusable, licensing a fallback to a
	// clean retrain; failures from the resumed training itself do not.
	unusable := func(err error) (*Network, History, error) {
		return nil, History{}, fmt.Errorf("%w: %w", ErrCheckpointUnusable, err)
	}
	file, err := readCheckpoint(cfg.Checkpoint.Path)
	if err != nil {
		return unusable(err)
	}
	if fp := trainFingerprint(x, y, xVal, yVal, cfg); fp != file.Fingerprint {
		return unusable(fmt.Errorf("nn: checkpoint %s was written by a different training configuration (fingerprint %s, want %s)",
			cfg.Checkpoint.Path, file.Fingerprint, fp))
	}
	net, err := netFromFile(file.Net)
	if err != nil {
		return unusable(fmt.Errorf("nn: checkpoint network: %w", err))
	}
	if x.Cols() != net.InDim || y.Cols() != net.OutDim() {
		return unusable(fmt.Errorf("nn: checkpoint network is %dx%d, data is %dx%d",
			net.InDim, net.OutDim(), x.Cols(), y.Cols()))
	}
	oc, ok := cfg.Optimizer.(optimizerCheckpointer)
	if !ok {
		return nil, History{}, fmt.Errorf("nn: optimizer %T cannot restore checkpoint state", cfg.Optimizer)
	}
	params := net.Params()
	if err := oc.restoreState(params, file.Opt); err != nil {
		return unusable(err)
	}
	r, err := rng.FromState(file.RNG)
	if err != nil {
		return unusable(err)
	}
	perm, err := restorePerm(file.Perm, x.Rows())
	if err != nil {
		return unusable(err)
	}
	if file.Epoch >= cfg.Epochs {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "resumed training: checkpoint %s already records %d/%d epochs (0 epochs run)\n",
				cfg.Checkpoint.Path, file.Epoch, cfg.Epochs)
		}
		return net, file.Hist, nil
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "resumed training at epoch %d/%d from %s\n", file.Epoch, cfg.Epochs, cfg.Checkpoint.Path)
	}
	hist, err := fitLoop(net, x, y, xVal, yVal, cfg, file.Epoch, r, perm, file.Hist, file.Fingerprint)
	return net, hist, err
}
