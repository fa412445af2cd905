package batch

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"dlpic/internal/core"
	"dlpic/internal/interp"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
)

func testNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP(nn.MLPConfig{InDim: 12, OutDim: 5, Hidden: 8, HiddenLayers: 2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestServerMatchesPredict1 drives several concurrent clients through
// many rounds and checks every served row bitwise against a reference
// Predict1 on an independent clone of the network.
func TestServerMatchesPredict1(t *testing.T) {
	net := testNet(t)
	ref, err := nn.Clone(net)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewNetworkServer(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, rounds = 5, 40
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, err := srv.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id int, cl *Client) {
			defer wg.Done()
			defer cl.Close()
			r := rng.New(uint64(100 + id))
			in := make([]float64, srv.inDim)
			out := make([]float64, srv.outDim)
			want := make([]float64, srv.outDim)
			for round := 0; round < rounds; round++ {
				for i := range in {
					in[i] = r.NormFloat64()
				}
				if err := cl.Predict(in, out); err != nil {
					errs[id] = err
					return
				}
				// The reference net is only read from this goroutine's
				// critical section below; serialize access to it.
				refMu.Lock()
				ref.Predict1(in, want)
				refMu.Unlock()
				for i := range want {
					if out[i] != want[i] {
						t.Errorf("client %d round %d: out[%d] = %v, want %v", id, round, i, out[i], want[i])
						return
					}
				}
			}
		}(c, cl)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	st := srv.Stats()
	if st.Requests != clients*rounds {
		t.Fatalf("stats.Requests = %d, want %d", st.Requests, clients*rounds)
	}
	if st.Batches == 0 || st.Batches > st.Requests {
		t.Fatalf("implausible flush count %d for %d requests", st.Batches, st.Requests)
	}
	if st.MaxBatch < 1 || st.MaxBatch > clients {
		t.Fatalf("stats.MaxBatch = %d outside [1,%d]", st.MaxBatch, clients)
	}
}

var refMu sync.Mutex

// TestSingleClientDegeneratesToPerCall checks the serial case: one
// client means every flush is a batch of one and nothing ever waits.
func TestSingleClientDegeneratesToPerCall(t *testing.T) {
	srv, err := NewNetworkServer(testNet(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := srv.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := make([]float64, srv.inDim)
	out := make([]float64, srv.outDim)
	for i := 0; i < 10; i++ {
		if err := cl.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Requests != 10 || st.Batches != 10 || st.MaxBatch != 1 {
		t.Fatalf("serial stats = %+v, want 10 batches of 1", st)
	}
}

// TestMaxBatchCap caps flushes below the client count and checks the
// server still completes and never exceeds the cap.
func TestMaxBatchCap(t *testing.T) {
	srv, err := NewNetworkServer(testNet(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients = 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, err := srv.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			defer cl.Close()
			in := make([]float64, srv.inDim)
			out := make([]float64, srv.outDim)
			for i := 0; i < 20; i++ {
				if err := cl.Predict(in, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	if st := srv.Stats(); st.MaxBatch > 2 {
		t.Fatalf("flush of %d rows exceeded MaxBatch 2", st.MaxBatch)
	}
}

// TestClientLifecycle covers misuse: predict after close, double close,
// shape mismatches, and use after server shutdown.
func TestClientLifecycle(t *testing.T) {
	srv, err := NewNetworkServer(testNet(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := srv.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, srv.inDim)
	out := make([]float64, srv.outDim)
	if err := cl.Predict(in[:3], out); err == nil || !strings.Contains(err.Error(), "input length") {
		t.Fatalf("short input: err = %v", err)
	}
	if err := cl.Predict(in, out[:1]); err == nil || !strings.Contains(err.Error(), "output length") {
		t.Fatalf("short output: err = %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := cl.Predict(in, out); err == nil {
		t.Fatal("Predict on closed client succeeded")
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.NewClient(); err == nil {
		t.Fatal("NewClient on closed server succeeded")
	}
}

// badPredictor panics, standing in for a shape-broken backend.
type badPredictor struct{}

func (badPredictor) PredictBatch(batch int, in, out []float64) { panic("boom") }

// TestPredictorPanicBecomesError checks a backend panic is delivered to
// the blocked requester as an error instead of wedging the server.
func TestPredictorPanicBecomesError(t *testing.T) {
	srv, err := NewServer(badPredictor{}, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := srv.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Predict(make([]float64, 2), make([]float64, 2))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// TestNewServerValidation pins the constructor contract.
func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, 1, 1, 0); err == nil {
		t.Fatal("nil predictor accepted")
	}
	if _, err := NewServer(badPredictor{}, 0, 1, 0); err == nil {
		t.Fatal("zero input width accepted")
	}
	if _, err := NewNetworkServer(nil, 0); err == nil {
		t.Fatal("nil network accepted")
	}
}

// The batched field method holds the same box-length contract as
// core.NNSolver: a binning box that is not the simulation's is an error
// at the first field solve.
func TestFieldMethodRejectsOtherBoxLength(t *testing.T) {
	cfg := pic.Default()
	cfg.Cells = 16
	cfg.ParticlesPerCell = 4
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: 2 * cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: cfg.Cells, Hidden: 8, HiddenLayers: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.NewNNSolver(net, spec, phasespace.Normalizer{Max: 1}, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := FromNNSolver(solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	method, err := bs.FieldMethod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer method.(io.Closer).Close()
	_, err = pic.New(cfg, method)
	if err == nil {
		t.Fatal("field method binned over twice the box was accepted")
	}
	for _, l := range []float64{spec.L, cfg.Length} {
		if !strings.Contains(err.Error(), fmt.Sprint(l)) {
			t.Errorf("error %q does not name box length %v", err, l)
		}
	}
}

// A scenario whose grid does not match the network's output width is
// refused when its field method is built, and its client does not stay
// registered: a later scenario still flushes on its own.
func TestFieldMethodRejectsOtherCellCount(t *testing.T) {
	cfg := pic.Default()
	cfg.Cells = 16
	cfg.ParticlesPerCell = 4
	spec := phasespace.GridSpec{NX: 16, NV: 8, L: cfg.Length, VMin: -0.8, VMax: 0.8, Binning: interp.NGP}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: cfg.Cells, Hidden: 8, HiddenLayers: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.NewNNSolver(net, spec, phasespace.Normalizer{Max: 1}, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := FromNNSolver(solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	other := cfg
	other.Cells = 32
	if _, err := bs.FieldMethod(other); err == nil {
		t.Fatal("field method for a 32-cell grid accepted a 16-output network")
	}
	method, err := bs.FieldMethod(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer method.(io.Closer).Close()
	if _, err := pic.New(cfg, method); err != nil {
		t.Fatal(err)
	}
	if st := bs.Server.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v, want one flush of the one solve", st)
	}
}
