package nn

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"dlpic/internal/parallel"
	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// TrainConfig drives Fit. The paper's settings are batch 64, Adam with
// lr = 1e-4, 150 epochs (MLP) / 100 epochs (CNN).
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Loss      Loss
	// Seed drives minibatch shuffling.
	Seed uint64
	// ClipNorm, if positive, clips the global gradient norm per batch.
	ClipNorm float64
	// Log, if non-nil, receives one line per epoch.
	Log io.Writer
	// LogEvery reduces log volume: epochs are logged when
	// (epoch+1) % LogEvery == 0 (default 1).
	LogEvery int
	// Workers is the data-parallel worker count of the sharded
	// forward/backward engine (0 = GOMAXPROCS, 1 = run the shards
	// inline). The gradient-shard decomposition and the chunk-ordered
	// reduction depend only on the batch geometry — never on Workers or
	// GOMAXPROCS — so the weights, epoch losses and History are
	// bit-identical at every Workers value.
	Workers int
	// Shards overrides the gradient-shard count per batch (0 = auto:
	// ceil(rows/trainShardRows) capped at maxTrainShards). Unlike
	// Workers, changing Shards changes the floating-point grouping of
	// the gradient reduction — it is part of the training configuration
	// the way BatchSize is, not part of the execution environment.
	Shards int
	// Checkpoint, when its Path is set, makes the fit resumable:
	// after every Checkpoint.Every-th epoch the full training state
	// (weights, optimizer moments, RNG/shuffle cursor, History) is
	// written atomically to Checkpoint.Path, and ResumeFit continues
	// from it bit-identically. Requires an optimizer whose state can
	// be serialized (Adam; any other Optimizer is refused).
	Checkpoint Checkpoint
}

// Auto shard sizing: one shard per trainShardRows batch rows, capped at
// maxTrainShards. The paper's batch of 64 yields 4 shards of 16 rows —
// per-shard GEMMs re-stream each layer's weight matrix, so fewer,
// fatter shards keep the serial (Workers=1) path at parity with the
// single-shard reference while still feeding 4 workers. Dense-stack
// training is memory-bound enough that more shards than that buy
// little even on wide machines; raise TrainConfig.Shards explicitly
// for conv-heavy nets, whose per-shard compute dwarfs the re-streaming.
const (
	trainShardRows = 16
	maxTrainShards = 8
)

// shardCount returns the gradient-shard count for a batch of rows. It
// is a pure function of the batch geometry and the configured override,
// which is the invariant behind worker-count-independent training.
func shardCount(rows, override int) int {
	if rows <= 0 {
		return 0
	}
	k := override
	if k <= 0 {
		k = (rows + trainShardRows - 1) / trainShardRows
		if k > maxTrainShards {
			k = maxTrainShards
		}
	}
	if k > rows {
		k = rows
	}
	return k
}

// EpochStats records the trajectory of one epoch.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValMAE    float64 // NaN when no validation set was supplied
	ValMax    float64
}

// History is the full training trajectory.
type History struct {
	Epochs []EpochStats
}

// Final returns the last epoch's stats (zero value when empty).
func (h History) Final() EpochStats {
	if len(h.Epochs) == 0 {
		return EpochStats{}
	}
	return h.Epochs[len(h.Epochs)-1]
}

// resolveWorkers maps the config value to a concrete worker count.
func resolveWorkers(w int) int {
	if w > 0 {
		return w
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// shardEngine is the deterministic data-parallel trainer: each batch is
// split into shards whose bounds depend only on the row count, workers
// run forward + backward on per-worker replicas (shared weights,
// private scratch), and the per-shard gradients are folded into the
// master network's gradient accumulators in strict shard order
// (parallel.OrderedFold). The left-fold chain per gradient element is
// fixed by the shard indices, so the summed gradient — and with it the
// optimizer trajectory, the epoch losses and the final weights — is
// bit-identical at every Workers value, including the inline Workers=1
// path.
type shardEngine struct {
	net    *Network
	loss   Loss
	shards int // config override (0 = auto)

	reps  []*replica
	sizes []int     // parameter flat sizes, Params() order
	flat  []float64 // master gradient backing (G tensors are views)

	fold      parallel.OrderedFold
	shardLoss []float64
	evalParts []float64
}

// newShardEngine prepares replicas and rebinds the master's gradient
// tensors onto one flat buffer so the ordered fold can run over a
// single destination. Returns an error for nets with layer types the
// replica machinery does not know — Fit refuses to train such nets
// (a new Layer type must be added to replicaLayer before it is
// trainable); only EvaluateWorkers degrades to a serial fallback.
func newShardEngine(net *Network, loss Loss, workers, shards, batchRows int) (*shardEngine, error) {
	e := &shardEngine{net: net, loss: loss, shards: shards}
	params := net.Params()
	total := 0
	e.sizes = make([]int, len(params))
	for i, p := range params {
		e.sizes[i] = p.G.Len()
		total += e.sizes[i]
	}
	e.flat = make([]float64, total)
	bindGrads(params, e.sizes, e.flat)
	n := resolveWorkers(workers)
	if k := shardCount(batchRows, shards); n > k {
		n = k
	}
	reps, err := makeReplicas(net, n)
	if err != nil {
		return nil, err
	}
	e.reps = reps
	return e, nil
}

// runBatch shards one minibatch (the rows of x, y selected by perm)
// across the workers and leaves the chunk-order-reduced gradient in the
// master network's accumulators. Returns the batch loss (shard
// contributions summed in shard order).
func (e *shardEngine) runBatch(x, y *tensor.Tensor, perm []int) float64 {
	rows := len(perm)
	k := shardCount(rows, e.shards)
	// No gradient zeroing: Backward overwrites (Layer contract), shard
	// 0 writes the master's flat gradient view in place, and the fold
	// overwrites the rest of the chain.
	e.fold.Begin(e.flat, k)
	if cap(e.shardLoss) < k {
		e.shardLoss = make([]float64, k)
	}
	shardLoss := e.shardLoss[:k]
	workers := len(e.reps)
	if workers > k {
		workers = k
	}
	parallel.ForPoolWorkers(k, workers, func(w, c int) {
		s, t := parallel.ChunkBounds(rows, k, c)
		shardLoss[c] = e.runShard(e.reps[w], x, y, perm[s:t], rows, c)
	})
	var total float64
	for _, l := range shardLoss {
		total += l
	}
	return total
}

// runShard gathers one shard's rows, runs forward + backward on the
// replica with its gradients bound to a pooled buffer, and delivers the
// buffer to the ordered fold.
func (e *shardEngine) runShard(rep *replica, x, y *tensor.Tensor, rows []int, totalRows, chunk int) float64 {
	n := len(rows)
	xb := ensure2D(&rep.xb, n, x.Cols())
	yb := ensure2D(&rep.yb, n, y.Cols())
	tensor.GatherRows(xb, x, rows)
	tensor.GatherRows(yb, y, rows)
	pred := rep.net.Forward(xb)
	grad := ensure2D(&rep.grad, n, yb.Cols())
	lossVal := e.loss.ForwardShard(pred, yb, grad, totalRows)
	buf := e.fold.Buffer(chunk) // chunk 0 writes the master grads in place
	bindGrads(rep.params, e.sizes, buf)
	rep.net.backwardTrain(grad)
	e.fold.Deliver(chunk, buf)
	return lossVal
}

// Fit trains the network on (x, y) with optional validation set
// (xVal/yVal may be nil). Rows of x and y are samples; a trailing
// partial batch is trained on like any other (no samples are dropped).
// Returns the training history.
//
// Training runs on the sharded data-parallel engine; see
// TrainConfig.Workers for the determinism contract.
func Fit(net *Network, x, y, xVal, yVal *tensor.Tensor, cfg TrainConfig) (History, error) {
	if err := validateFit(x, y, xVal, yVal, cfg); err != nil {
		return History{}, err
	}
	if x.Cols() != net.InDim {
		return History{}, fmt.Errorf("nn: input width %d, network wants %d", x.Cols(), net.InDim)
	}
	if y.Cols() != net.OutDim() {
		return History{}, fmt.Errorf("nn: target width %d, network outputs %d", y.Cols(), net.OutDim())
	}
	perm := make([]int, x.Rows())
	for i := range perm {
		perm[i] = i
	}
	fp := ""
	if cfg.Checkpoint.enabled() {
		fp = trainFingerprint(x, y, xVal, yVal, cfg)
	}
	return fitLoop(net, x, y, xVal, yVal, cfg, 0, rng.New(cfg.Seed), perm, History{}, fp)
}

// validateFit checks the configuration and data shapes shared by Fit
// and ResumeFit (network-dependent checks stay with the callers —
// ResumeFit only has a network after loading the checkpoint).
func validateFit(x, y, xVal, yVal *tensor.Tensor, cfg TrainConfig) error {
	if cfg.Epochs <= 0 {
		return fmt.Errorf("nn: Epochs = %d, need > 0", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return fmt.Errorf("nn: BatchSize = %d, need > 0", cfg.BatchSize)
	}
	if cfg.Optimizer == nil || cfg.Loss == nil {
		return fmt.Errorf("nn: Optimizer and Loss are required")
	}
	if cfg.Checkpoint.enabled() {
		if _, ok := cfg.Optimizer.(optimizerCheckpointer); !ok {
			return fmt.Errorf("nn: optimizer %T cannot be checkpointed (no serializable state)", cfg.Optimizer)
		}
	}
	if x.Rows() != y.Rows() {
		return fmt.Errorf("nn: sample count mismatch x=%d y=%d", x.Rows(), y.Rows())
	}
	if (xVal == nil) != (yVal == nil) {
		return fmt.Errorf("nn: validation inputs and targets must both be set or both nil")
	}
	if x.Rows() == 0 {
		return fmt.Errorf("nn: empty training set")
	}
	return nil
}

// fitLoop runs epochs [start, cfg.Epochs) with the given shuffle state
// and accumulated history — the shared engine behind Fit (start = 0,
// fresh state) and ResumeFit (state restored from a checkpoint). perm
// is owned by the loop; fingerprint is stamped into every checkpoint.
func fitLoop(net *Network, x, y, xVal, yVal *tensor.Tensor, cfg TrainConfig,
	start int, r *rng.Source, perm []int, hist History, fingerprint string) (History, error) {
	nSamples := x.Rows()
	bs := cfg.BatchSize
	if bs > nSamples {
		bs = nSamples
	}
	eng, err := newShardEngine(net, cfg.Loss, cfg.Workers, cfg.Shards, bs)
	if err != nil {
		return hist, err
	}
	params := net.Params() // stable across batches; avoids per-batch rebuilds
	logEvery := cfg.LogEvery
	if logEvery <= 0 {
		logEvery = 1
	}
	for epoch := start; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(nSamples, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var epochLoss float64
		var batches int
		for bstart := 0; bstart < nSamples; bstart += bs {
			bend := bstart + bs
			if bend > nSamples {
				bend = nSamples
			}
			loss := eng.runBatch(x, y, perm[bstart:bend])
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return hist, fmt.Errorf("nn: non-finite loss %v at epoch %d batch %d", loss, epoch, batches)
			}
			if cfg.ClipNorm > 0 {
				ClipGradNorm(params, cfg.ClipNorm)
			}
			cfg.Optimizer.Step(params)
			epochLoss += loss
			batches++
		}
		stats := EpochStats{Epoch: epoch, TrainLoss: epochLoss / float64(batches), ValMAE: math.NaN(), ValMax: math.NaN()}
		if xVal != nil {
			m := evalReplicas(eng.reps, xVal, yVal, bs, &eng.evalParts)
			stats.ValMAE = m.MAE
			stats.ValMax = m.MaxErr
		}
		hist.Epochs = append(hist.Epochs, stats)
		if cfg.Log != nil && (epoch+1)%logEvery == 0 {
			if xVal != nil {
				fmt.Fprintf(cfg.Log, "epoch %3d/%d  loss %.6g  val MAE %.6g  val max %.6g\n",
					epoch+1, cfg.Epochs, stats.TrainLoss, stats.ValMAE, stats.ValMax)
			} else {
				fmt.Fprintf(cfg.Log, "epoch %3d/%d  loss %.6g\n", epoch+1, cfg.Epochs, stats.TrainLoss)
			}
		}
		if cfg.Checkpoint.enabled() && cfg.Checkpoint.due(epoch, cfg.Epochs) {
			file := ckptFile{
				Version:     ckptVersion,
				Fingerprint: fingerprint,
				Epoch:       epoch + 1,
				Opt:         cfg.Optimizer.(optimizerCheckpointer).captureState(params),
				RNG:         r.Snapshot(),
				Perm:        perm,
				Hist:        hist,
			}
			if file.Net, err = netToFile(net); err != nil {
				return hist, err
			}
			if err := writeCheckpoint(cfg.Checkpoint, file); err != nil {
				return hist, err
			}
		}
	}
	return hist, nil
}

// Metrics are the paper's Table-I error statistics over a dataset.
type Metrics struct {
	// MAE is the mean absolute error over all outputs and samples
	// (paper Eq. 6).
	MAE float64
	// MaxErr is the largest absolute error.
	MaxErr float64
	// RMSE is the root-mean-square error (extra, not in the paper).
	RMSE float64
	// N is the number of samples evaluated.
	N int
}

// Evaluate computes the Table-I metrics of the network on (x, y),
// processing in batches of batchSize. Equivalent to EvaluateWorkers
// with workers = 0 (GOMAXPROCS).
func Evaluate(net *Network, x, y *tensor.Tensor, batchSize int) Metrics {
	return EvaluateWorkers(net, x, y, batchSize, 0)
}

// EvaluateWorkers is Evaluate with an explicit worker count
// (0 = GOMAXPROCS). Batches are scored on per-worker replicas and the
// per-batch error sums are combined in batch-index order, so the
// metrics are bit-identical at every workers value and every
// GOMAXPROCS — the decomposition depends only on (samples, batchSize).
func EvaluateWorkers(net *Network, x, y *tensor.Tensor, batchSize, workers int) Metrics {
	n := x.Rows()
	if n != y.Rows() {
		panic(fmt.Sprintf("nn: Evaluate sample mismatch %d vs %d", n, y.Rows()))
	}
	if n == 0 {
		return Metrics{}
	}
	w := resolveWorkers(workers)
	// Clamp to the batch count before building replicas — extra
	// replicas past one-per-batch could never run.
	bsEff := batchSize
	if bsEff <= 0 {
		bsEff = 64
	}
	if nb := (n + bsEff - 1) / bsEff; w > nb {
		w = nb
	}
	reps, err := makeReplicas(net, w)
	if err != nil {
		// Nets with unreplicable layers fall back to scoring on the
		// master network itself, serially.
		return evaluateSerial(net, x, y, batchSize)
	}
	var parts []float64
	return evalReplicas(reps, x, y, batchSize, &parts)
}

// evalReplicas scores (x, y) on the given replicas: one task per batch,
// per-batch partial sums (|err|, err^2, max|err|) combined in batch
// order. partials is a grow-only scratch slice owned by the caller so
// per-epoch validation inside Fit does not allocate.
func evalReplicas(reps []*replica, x, y *tensor.Tensor, batchSize int, partials *[]float64) Metrics {
	n := x.Rows()
	if n != y.Rows() {
		panic(fmt.Sprintf("nn: Evaluate sample mismatch %d vs %d", n, y.Rows()))
	}
	if n == 0 {
		return Metrics{}
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	if batchSize > n {
		batchSize = n
	}
	nb := (n + batchSize - 1) / batchSize
	if cap(*partials) < 3*nb {
		*partials = make([]float64, 3*nb)
	}
	parts := (*partials)[:3*nb]
	workers := len(reps)
	if workers > nb {
		workers = nb
	}
	parallel.ForPoolWorkers(nb, workers, func(w, b int) {
		rep := reps[w]
		start := b * batchSize
		end := start + batchSize
		if end > n {
			end = n
		}
		rows := end - start
		xb := ensure2D(&rep.xb, rows, x.Cols())
		for i := 0; i < rows; i++ {
			copy(xb.Row(i), x.Row(start+i))
		}
		pred := rep.net.Forward(xb)
		var sumAbs, sumSq, maxErr float64
		for i := 0; i < rows; i++ {
			pr := pred.Row(i)
			tr := y.Row(start + i)
			for j := range pr {
				d := math.Abs(pr[j] - tr[j])
				sumAbs += d
				sumSq += d * d
				if d > maxErr {
					maxErr = d
				}
			}
		}
		parts[3*b], parts[3*b+1], parts[3*b+2] = sumAbs, sumSq, maxErr
	})
	var sumAbs, sumSq, maxErr float64
	for b := 0; b < nb; b++ {
		sumAbs += parts[3*b]
		sumSq += parts[3*b+1]
		if parts[3*b+2] > maxErr {
			maxErr = parts[3*b+2]
		}
	}
	count := n * y.Cols()
	if count == 0 {
		return Metrics{}
	}
	return Metrics{
		MAE:    sumAbs / float64(count),
		MaxErr: maxErr,
		RMSE:   math.Sqrt(sumSq / float64(count)),
		N:      n,
	}
}

// evaluateSerial is the reference implementation: one batch at a time
// on the master network. Kept for nets the replica machinery cannot
// mirror. The batch tensor is grow-only scratch — the trailing partial
// batch reslices it instead of allocating.
func evaluateSerial(net *Network, x, y *tensor.Tensor, batchSize int) Metrics {
	n := x.Rows()
	if batchSize <= 0 {
		batchSize = 64
	}
	if batchSize > n {
		batchSize = n
	}
	var sumAbs, sumSq, maxErr float64
	var count int
	var xb *tensor.Tensor
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		rows := end - start
		batch := ensure2D(&xb, rows, x.Cols())
		for bi := 0; bi < rows; bi++ {
			copy(batch.Row(bi), x.Row(start+bi))
		}
		pred := net.Forward(batch)
		for bi := 0; bi < rows; bi++ {
			pr := pred.Row(bi)
			tr := y.Row(start + bi)
			for j := range pr {
				d := math.Abs(pr[j] - tr[j])
				sumAbs += d
				sumSq += d * d
				if d > maxErr {
					maxErr = d
				}
				count++
			}
		}
	}
	if count == 0 {
		return Metrics{}
	}
	return Metrics{
		MAE:    sumAbs / float64(count),
		MaxErr: maxErr,
		RMSE:   math.Sqrt(sumSq / float64(count)),
		N:      n,
	}
}
