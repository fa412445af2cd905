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
//
// Field method: Solver hands each scenario a core.NNSolver whose
// prediction stage is a Client of the shared server
// (core.NNSolver.WithPredict). Binning, normalization, the box-length
// and non-finite checks are core's one DL pipeline, never a copy.
package batch

import (
	"errors"
	"fmt"
	"sync"

	"dlpic/internal/core"
	"dlpic/internal/nn"
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
// out clients with NewClient, and Close the server after every client
// is closed.
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
// Sweep integration

// Solver is a running server around a trained DL field solver's
// network. It implements sweep.Batcher: each scenario gets its own
// core.NNSolver whose prediction stage is a fresh client of the server,
// so binning, normalization and the field checks are core's and every
// scenario's inference lands on the one shared network.
type Solver struct {
	// Server is the running inference server (owned; Close stops it).
	Server *Server

	solver *core.NNSolver
}

// FromNNSolver starts a batched solver that shares the network, binning
// spec and normalizer of an existing per-call solver (the solver's own
// scratch is untouched; do not step it concurrently with the server).
// maxBatch <= 0 selects DefaultMaxBatch.
func FromNNSolver(s *core.NNSolver, maxBatch int) (*Solver, error) {
	if s == nil {
		return nil, errors.New("batch: nil solver")
	}
	srv, err := NewNetworkServer(s.Net, maxBatch)
	if err != nil {
		return nil, err
	}
	return &Solver{Server: srv, solver: s}, nil
}

// fieldMethod is one scenario's batched field method. The sweep engine
// closes it when the scenario finishes, unregistering its client.
type fieldMethod struct {
	*core.NNSolver
	client *Client
}

func (m fieldMethod) Close() error { return m.client.Close() }

// FieldMethod implements sweep.Batcher: it registers a client for one
// scenario of the given configuration.
func (s *Solver) FieldMethod(cfg pic.Config) (pic.FieldMethod, error) {
	client, err := s.Server.NewClient()
	if err != nil {
		return nil, err
	}
	m, err := s.solver.WithPredict(cfg.Cells, client.Predict)
	if err != nil {
		client.Close()
		return nil, err
	}
	return fieldMethod{m, client}, nil
}

// Close stops the underlying server. Call after the sweeps using the
// solver have returned.
func (s *Solver) Close() { s.Server.Close() }
