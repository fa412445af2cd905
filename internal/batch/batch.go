// Package batch implements the batched-inference subsystem that
// amortizes the DL field solve across concurrent simulations. The
// paper's method replaces the PIC field solver with a neural network;
// when a sweep pool runs N scenarios side by side, letting each call
// Predict1 costs N small GEMMs per step (and N cloned networks, since a
// network's forward scratch cannot be shared). The Server here owns one
// network and collects the per-scenario field requests over channels,
// stacking them into a single PredictBatch call — one large GEMM whose
// weight traffic is paid once per batch instead of once per scenario.
//
// Flush protocol: requests accumulate until either the batch is full
// (MaxBatch rows) or every registered client has a request outstanding
// — the "all outstanding requesters are blocked" condition, tracked by
// comparing the pending count against the registered-client count. A
// client is either computing (it will eventually predict or close) or
// blocked in Predict, so the condition guarantees progress without
// timers: the server never waits on a clock, and a serial sweep
// (one client) degenerates to per-call inference with identical
// results.
//
// Determinism: a scenario's result depends only on that scenario's
// input row. Network.PredictBatch is bit-identical per-row to Predict1
// at any batch size and row order (see internal/nn and the k-outer GEMM
// in internal/tensor), so batch composition — which is timing-dependent
// under the pool — never leaks into the physics. Batched sweeps are
// therefore bit-identical to per-call sweeps at any worker count and
// any MaxBatch.
package batch

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dlpic/internal/core"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
)

// Predictor is the batched inference backend the server drives:
// PredictBatch consumes batch stacked rows of in and writes batch
// stacked rows of out. *nn.Network implements it.
type Predictor interface {
	PredictBatch(batch int, in, out []float64)
}

// Stats summarizes the traffic a server has processed.
type Stats struct {
	// Requests is the total number of rows served.
	Requests int
	// Batches is the number of PredictBatch flushes issued.
	Batches int
	// MaxBatch is the largest flush observed.
	MaxBatch int
}

// AvgBatch returns the mean rows per flush (0 before the first flush).
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// request is one row of work: the server reads in, writes out, and
// reports completion on done.
type request struct {
	in, out []float64
	done    chan error
}

// Server collects predict requests from registered clients and flushes
// them through a shared Predictor in stacked batches. One goroutine
// owns the predictor, so the backing network needs no locking and no
// per-scenario clones. Create with NewServer or NewNetworkServer, hand
// out clients with NewClient (or field methods with NewFieldMethod),
// and Close the server after every client is closed.
type Server struct {
	pred          Predictor
	inDim, outDim int
	maxBatch      int
	reqCh         chan *request
	regCh         chan int
	stopCh        chan struct{}
	stopped       chan struct{}
	mu            sync.Mutex
	stats         Stats
	closed        bool
}

// DefaultMaxBatch bounds a flush when the caller does not choose a
// batch cap. It comfortably exceeds any realistic sweep pool width, so
// the all-blocked condition is what triggers flushes in practice.
const DefaultMaxBatch = 64

// NewServer starts a server around an arbitrary predictor with the
// given row widths. maxBatch <= 0 selects DefaultMaxBatch.
func NewServer(pred Predictor, inDim, outDim, maxBatch int) (*Server, error) {
	if pred == nil {
		return nil, errors.New("batch: nil predictor")
	}
	if inDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("batch: invalid row widths in=%d out=%d", inDim, outDim)
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	s := &Server{
		pred: pred, inDim: inDim, outDim: outDim, maxBatch: maxBatch,
		reqCh:   make(chan *request),
		regCh:   make(chan int),
		stopCh:  make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// NewNetworkServer starts a server that shares one network across all
// clients, taking the row widths from the network itself.
func NewNetworkServer(net *nn.Network, maxBatch int) (*Server, error) {
	if net == nil {
		return nil, errors.New("batch: nil network")
	}
	return NewServer(net, net.InDim, net.OutDim(), maxBatch)
}

// InDim returns the per-request input width.
func (s *Server) InDim() int { return s.inDim }

// OutDim returns the per-request output width.
func (s *Server) OutDim() int { return s.outDim }

// MaxBatch returns the flush cap.
func (s *Server) MaxBatch() int { return s.maxBatch }

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops the server goroutine and waits for it to exit. Any
// request still in flight is failed with an error; close clients
// first in normal operation. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.stopped
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.stopped
}

// loop is the server goroutine: it interleaves registration changes and
// requests, flushing whenever the batch fills or every registered
// client is blocked waiting.
func (s *Server) loop() {
	defer close(s.stopped)
	var (
		pending []*request
		inBuf   []float64
		outBuf  []float64
		active  int
	)
	for {
		select {
		case d := <-s.regCh:
			active += d
		case r := <-s.reqCh:
			pending = append(pending, r)
		case <-s.stopCh:
			for _, r := range pending {
				r.done <- errors.New("batch: server closed with request in flight")
			}
			return
		}
		if len(pending) == 0 {
			continue
		}
		if len(pending) >= s.maxBatch || len(pending) >= active {
			b := len(pending)
			if need := b * s.inDim; cap(inBuf) < need {
				inBuf = make([]float64, need)
			}
			if need := b * s.outDim; cap(outBuf) < need {
				outBuf = make([]float64, need)
			}
			in, out := inBuf[:b*s.inDim], outBuf[:b*s.outDim]
			for i, r := range pending {
				copy(in[i*s.inDim:(i+1)*s.inDim], r.in)
			}
			err := s.predict(b, in, out)
			// Update the counters before waking any requester, so a
			// Stats() call issued right after a sweep returns always
			// sees its own final flush.
			s.mu.Lock()
			s.stats.Requests += b
			s.stats.Batches++
			if b > s.stats.MaxBatch {
				s.stats.MaxBatch = b
			}
			s.mu.Unlock()
			for i, r := range pending {
				if err == nil {
					copy(r.out, out[i*s.outDim:(i+1)*s.outDim])
				}
				r.done <- err
			}
			pending = pending[:0]
		}
	}
}

// predict runs the flush, converting a predictor panic into an error so
// a malformed backend cannot wedge every blocked client.
func (s *Server) predict(b int, in, out []float64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("batch: predictor panic: %v", p)
		}
	}()
	s.pred.PredictBatch(b, in, out)
	return nil
}

// Client is one requester's handle on a server. A client belongs to
// exactly one simulation (or other serial caller): Predict blocks until
// the server flushes the batch containing the request, and at most one
// request may be outstanding per client. Close when the simulation is
// done — the server counts registered clients to detect the all-blocked
// flush condition, so a leaked client stalls every other requester.
type Client struct {
	s      *Server
	done   chan error
	closed bool
}

// NewClient registers a new requester with the server.
func (s *Server) NewClient() (*Client, error) {
	select {
	case s.regCh <- 1:
		return &Client{s: s, done: make(chan error, 1)}, nil
	case <-s.stopped:
		return nil, errors.New("batch: server closed")
	}
}

// Predict submits one row (length InDim) and blocks until the result
// row (length OutDim) has been written into out.
func (c *Client) Predict(in, out []float64) error {
	if c.closed {
		return errors.New("batch: Predict on closed client")
	}
	if len(in) != c.s.inDim {
		return fmt.Errorf("batch: input length %d, want %d", len(in), c.s.inDim)
	}
	if len(out) != c.s.outDim {
		return fmt.Errorf("batch: output length %d, want %d", len(out), c.s.outDim)
	}
	r := &request{in: in, out: out, done: c.done}
	select {
	case c.s.reqCh <- r:
	case <-c.s.stopped:
		return errors.New("batch: server closed")
	}
	return <-c.done
}

// Close unregisters the client. Idempotent; the client must not be
// used afterwards.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	select {
	case c.s.regCh <- -1:
	case <-c.s.stopped:
	}
	return nil
}

// ---------------------------------------------------------------------------
// PIC field-method adapter

// FieldMethod routes one simulation's DL field solve through a batch
// server: it bins the particle phase space, normalizes the histogram
// with the training-time transform, and submits the row to the server,
// exactly mirroring core.NNSolver's per-call pipeline. It implements
// pic.FieldMethod and io.Closer; the sweep engine closes it when its
// scenario finishes.
type FieldMethod struct {
	client *Client
	norm   phasespace.Normalizer
	hist   *phasespace.Hist
	in     []float64
}

// NewFieldMethod registers a client and wraps it as a field method for
// a grid of the given cell count. The phase-space spec must match the
// server's input width and the cell count its output width — the same
// contract core.NewNNSolver enforces.
func (s *Server) NewFieldMethod(spec phasespace.GridSpec, norm phasespace.Normalizer, cells int) (*FieldMethod, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Size() != s.inDim {
		return nil, fmt.Errorf("batch: phase-space size %d != server input %d", spec.Size(), s.inDim)
	}
	if cells != s.outDim {
		return nil, fmt.Errorf("batch: grid cells %d != server output %d", cells, s.outDim)
	}
	hist, err := phasespace.NewHist(spec)
	if err != nil {
		return nil, err
	}
	client, err := s.NewClient()
	if err != nil {
		return nil, err
	}
	return &FieldMethod{
		client: client, norm: norm,
		hist: hist, in: make([]float64, spec.Size()),
	}, nil
}

// Name implements pic.FieldMethod.
func (m *FieldMethod) Name() string { return "dl-batched" }

// ComputeField implements pic.FieldMethod: bin, normalize, and predict
// through the shared server. As in core.NNSolver, the binning box must
// be the simulation's.
func (m *FieldMethod) ComputeField(sim *pic.Simulation, e []float64) error {
	if l := m.hist.Spec.L; l != sim.Cfg.Length {
		return fmt.Errorf("batch: model binned over box length %v, simulation box is %v", l, sim.Cfg.Length)
	}
	if err := m.hist.Bin(sim.P.X, sim.P.V); err != nil {
		return err
	}
	m.norm.Apply(m.in, m.hist.Data)
	if err := m.client.Predict(m.in, e); err != nil {
		return err
	}
	for i, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("batch: network produced non-finite E[%d] = %v", i, v)
		}
	}
	return nil
}

// Close implements io.Closer, unregistering the method's client.
func (m *FieldMethod) Close() error { return m.client.Close() }

// ---------------------------------------------------------------------------
// Sweep integration

// Solver bundles a running server with the preprocessing contract of a
// trained DL field solver. It implements sweep.Batcher: each scenario
// gets a FieldMethod bound to a fresh client, and every scenario's
// inference lands on the one shared network.
type Solver struct {
	// Server is the running inference server (owned; Close stops it).
	Server *Server
	// Spec and Norm are the binning and normalization fixed at
	// training time, shared by every scenario.
	Spec phasespace.GridSpec
	Norm phasespace.Normalizer
}

// NewSolver starts a batched solver around a trained network and its
// preprocessing contract. maxBatch <= 0 selects DefaultMaxBatch.
func NewSolver(net *nn.Network, spec phasespace.GridSpec, norm phasespace.Normalizer, maxBatch int) (*Solver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if net != nil && net.InDim != spec.Size() {
		return nil, fmt.Errorf("batch: network input %d != phase-space size %d", net.InDim, spec.Size())
	}
	srv, err := NewNetworkServer(net, maxBatch)
	if err != nil {
		return nil, err
	}
	return &Solver{Server: srv, Spec: spec, Norm: norm}, nil
}

// FromNNSolver starts a batched solver that shares the network of an
// existing per-call solver (the solver's own scratch is untouched; do
// not step it concurrently with the server). The solver's optional
// ClampAbs / SmoothModes post-processing is not implemented on the
// batched path, so those must be at their (paper-default) zero values.
func FromNNSolver(s *core.NNSolver, maxBatch int) (*Solver, error) {
	if s == nil {
		return nil, errors.New("batch: nil solver")
	}
	if s.ClampAbs != 0 || s.SmoothModes != 0 {
		return nil, fmt.Errorf("batch: ClampAbs/SmoothModes post-processing is not supported on the batched path")
	}
	return NewSolver(s.Net, s.Spec, s.Norm, maxBatch)
}

// FromNNSolver32 is FromNNSolver on the float32 inference path: the
// solver's network is converted once (nn.NewPredictor32) and the shared
// server evaluates every scenario's batched solves in float32. The
// conversion is eager so unsupported architectures fail here, not at
// the first solve. Same post-processing restriction as FromNNSolver;
// results differ from the float64 path within the nn.MeasureDrift32
// bounds, so only compare digests across runs of the same precision.
func FromNNSolver32(s *core.NNSolver, maxBatch int) (*Solver, error) {
	if s == nil {
		return nil, errors.New("batch: nil solver")
	}
	if s.ClampAbs != 0 || s.SmoothModes != 0 {
		return nil, fmt.Errorf("batch: ClampAbs/SmoothModes post-processing is not supported on the batched path")
	}
	pred, err := nn.NewPredictor32(s.Net)
	if err != nil {
		return nil, fmt.Errorf("batch: float32 conversion: %w", err)
	}
	srv, err := NewServer(pred, pred.InDim(), pred.OutDim(), maxBatch)
	if err != nil {
		return nil, err
	}
	return &Solver{Server: srv, Spec: s.Spec, Norm: s.Norm}, nil
}

// FieldMethod implements sweep.Batcher: it registers a client for one
// scenario of the given configuration.
func (s *Solver) FieldMethod(cfg pic.Config) (pic.FieldMethod, error) {
	return s.Server.NewFieldMethod(s.Spec, s.Norm, cfg.Cells)
}

// Close stops the underlying server. Call after the sweeps using the
// solver have returned.
func (s *Solver) Close() { s.Server.Close() }
