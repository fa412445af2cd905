package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/sweep"
)

// What a parked claim may and may not do. The hub tests below set
// ClaimRetry far beyond the test's patience wherever a wake signal is
// the subject, so only the signal can explain an answer; the two rows
// about the hold itself use a short one and count claims or bound the
// answer between one and two holds.

// signalWait is how long a test waits for something a wake signal
// should make happen at once.
const signalWait = 10 * time.Second

// neverRetry is a ClaimRetry no test outlives.
const neverRetry = time.Hour

// claimAnswer is what one handleClaim call produced.
type claimAnswer struct {
	resp    ClaimResponse
	elapsed time.Duration
}

// goClaim runs the claim handler for worker on its own goroutine and
// delivers its answer; ctx is the request context (the connection).
func goClaim(ctx context.Context, h *Hub, worker string) <-chan claimAnswer {
	out := make(chan claimAnswer, 1)
	body, _ := json.Marshal(ClaimRequest{Worker: worker, Max: 1})
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/dist/claim", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.handleClaim(rec, req)
		a := claimAnswer{elapsed: time.Since(start)}
		if rec.Body.Len() > 0 {
			json.Unmarshal(rec.Body.Bytes(), &a.resp)
		}
		out <- a
	}()
	return out
}

// within receives from ch or fails the test after signalWait.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(signalWait):
		t.Fatalf("%s: nothing after %v", what, signalWait)
		panic("unreachable")
	}
}

// liveJob starts hub.Run for a job on its own goroutine and returns the
// job's coordinator once it is registered, plus the channel Run's
// return is announced on.
func liveJob(t *testing.T, h *Hub, job string, spec campaign.Spec) (*Coordinator, <-chan error) {
	t.Helper()
	_, poked := h.live()
	ended := make(chan error, 1)
	journal := filepath.Join(t.TempDir(), job+".jsonl")
	go func() {
		_, err := h.Run(job, journal, spec)
		ended <- err
	}()
	for h.coordinator(job) == nil {
		select {
		case <-poked: // registration pokes; so may others
			_, poked = h.live()
		case err := <-ended:
			t.Fatalf("job %s ended before it registered: %v", job, err)
		case <-time.After(signalWait):
			t.Fatalf("job %s never registered", job)
		}
	}
	return h.coordinator(job), ended
}

// awaitParked blocks until worker's claim has scanned c without a
// grant. The handler reads the hub's wake channel before it scans, so
// from here on any poke reaches it.
func awaitParked(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	deadline := time.Now().Add(signalWait)
	for {
		c.mu.Lock()
		seen := c.claimers[worker]
		c.mu.Unlock()
		if seen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never reached the coordinator", worker)
		}
		time.Sleep(time.Millisecond)
	}
}

// failedRecord is a permanent-failure completion for key: it settles a
// cell without running any physics.
func failedRecord(key string) campaign.Record {
	rec, _ := campaign.NewRecord(key, 0, sweep.Result{Err: errors.New("test: not run")}).Sanitized()
	return rec
}

// finishJob settles every cell of c that is still open — leased or
// not — so the job's Run returns, and waits for it.
func finishJob(t *testing.T, c *Coordinator, ended <-chan error) {
	t.Helper()
	c.mu.Lock()
	leased := make(map[string]string, len(c.byLease))
	for lease, cs := range c.byLease {
		leased[lease] = cs.cell.Key
	}
	c.mu.Unlock()
	for lease, key := range leased {
		if err := c.Complete(lease, failedRecord(key), false); err != nil {
			t.Fatalf("finishing lease %s: %v", lease, err)
		}
	}
	for {
		g, done, err := c.Claim("finisher", nil)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			if !done {
				t.Fatal("finishJob: open cells but nothing claimable")
			}
			break
		}
		if err := c.Complete(g.Lease, failedRecord(g.Cell.Key), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := within(t, ended, "job end"); err != nil {
		t.Fatal(err)
	}
}

// heldJob is a live one-cell job whose cell is leased to "holder", so
// every other claimant parks on it.
func heldJob(t *testing.T, h *Hub, job string) (*Coordinator, *Grant, <-chan error) {
	t.Helper()
	c, ended := liveJob(t, h, job, tinySpec(1, 5))
	g, _, err := c.Claim("holder", nil)
	if err != nil || g == nil {
		t.Fatalf("holder claim = (%v, %v)", g, err)
	}
	return c, g, ended
}

// TestParkedClaimWakeSources: each thing that can make a cell claimable
// reaches a parked claim at once, with the hold set so long that only
// the wake signal can have delivered it.
func TestParkedClaimWakeSources(t *testing.T) {
	t.Run("job registered", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: neverRetry})
		held, _, heldEnded := heldJob(t, h, "a")
		defer finishJob(t, held, heldEnded)
		a1 := goClaim(context.Background(), h, "w1")
		a2 := goClaim(context.Background(), h, "w2")
		awaitParked(t, held, "w1")
		awaitParked(t, held, "w2")

		fresh, freshEnded := liveJob(t, h, "b", tinySpec(2, 5))
		defer finishJob(t, fresh, freshEnded)
		r1 := within(t, a1, "w1's parked claim").resp
		r2 := within(t, a2, "w2's parked claim").resp
		for _, r := range []ClaimResponse{r1, r2} {
			if r.Status != "cell" || r.Job != "b" || len(r.Cells) != 1 {
				t.Fatalf("parked claim answered %+v, want one cell of job b", r)
			}
		}
		if r1.Cells[0].Key == r2.Cells[0].Key {
			t.Fatalf("both parked claims were granted cell %q", r1.Cells[0].Key)
		}
	})

	t.Run("lease expired", func(t *testing.T) {
		t.Parallel()
		clock := newFakeClock()
		h := NewHub(Options{ClaimRetry: neverRetry, LeaseTTL: time.Second, Clock: clock.Now})
		c, g, ended := heldJob(t, h, "a")
		defer finishJob(t, c, ended)
		answer := goClaim(context.Background(), h, "w")
		awaitParked(t, c, "w")

		// The holder falls silent past its TTL; its late heartbeat is the
		// RPC that notices.
		clock.Advance(2 * time.Second)
		if _, expired := c.HeartbeatBatch([]string{g.Lease}); len(expired) != 1 {
			t.Fatalf("late heartbeat expired %v, want the holder's lease", expired)
		}
		r := within(t, answer, "the parked claim").resp
		if r.Status != "cell" || len(r.Cells) != 1 || r.Cells[0].Key != g.Cell.Key {
			t.Fatalf("parked claim answered %+v, want the expired cell %q", r, g.Cell.Key)
		}
	})

	t.Run("transient failure", func(t *testing.T) {
		t.Parallel()
		// tinySpec's retry policy has no base delay: the backoff gate is
		// open the moment the cell returns to the pool.
		h := NewHub(Options{ClaimRetry: neverRetry})
		c, g, ended := heldJob(t, h, "a")
		defer finishJob(t, c, ended)
		answer := goClaim(context.Background(), h, "w")
		awaitParked(t, c, "w")

		if err := c.Complete(g.Lease, failedRecord(g.Cell.Key), true); err != nil {
			t.Fatal(err)
		}
		r := within(t, answer, "the parked claim").resp
		if r.Status != "cell" || len(r.Cells) != 1 || r.Cells[0].Key != g.Cell.Key {
			t.Fatalf("parked claim answered %+v, want the returned cell %q", r, g.Cell.Key)
		}
	})
}

// claimCounter counts the claim requests that reach a hub's mux and
// announces each handler's return.
type claimCounter struct {
	next     http.Handler
	claims   atomic.Int64
	returned chan struct{}
}

func (cc *claimCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/dist/claim" {
		cc.next.ServeHTTP(w, r)
		return
	}
	cc.claims.Add(1)
	cc.next.ServeHTTP(w, r)
	cc.returned <- struct{}{}
}

// serveHub mounts h behind a claim counter on a test server.
func serveHub(t *testing.T, h *Hub) (*httptest.Server, *claimCounter) {
	t.Helper()
	mux := http.NewServeMux()
	h.Register(mux)
	// Room for every claim a test makes: nobody has to drain it.
	cc := &claimCounter{next: mux, returned: make(chan struct{}, 64)}
	srv := httptest.NewServer(cc)
	t.Cleanup(srv.Close)
	return srv, cc
}

// TestParkedClaimHoldExpiry: with no wake the answer comes after one
// ClaimRetry, not before and not after two; a session removed meanwhile
// turns that answer into "done", so a one-shot worker leaves on its
// first claim; and a stopped worker makes no claim after the one it had
// parked.
func TestParkedClaimHoldExpiry(t *testing.T) {
	const hold = 200 * time.Millisecond

	t.Run("nothing happens", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: hold})
		c, _, ended := heldJob(t, h, "a")
		defer finishJob(t, c, ended)
		a := within(t, goClaim(context.Background(), h, "w"), "the held claim")
		if a.resp.Status != "idle" || a.resp.RetryMS != hold.Milliseconds() {
			t.Fatalf("answer %+v, want idle with the hold as retry hint", a.resp)
		}
		if a.elapsed < hold || a.elapsed >= 2*hold {
			t.Fatalf("idle after %v, want one hold of %v", a.elapsed, hold)
		}
	})

	t.Run("no job at all", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: hold})
		a := within(t, goClaim(context.Background(), h, "w"), "the held claim")
		if a.resp.Status != "done" {
			t.Fatalf("answer %+v, want done", a.resp)
		}
		if a.elapsed < hold || a.elapsed >= 2*hold {
			t.Fatalf("done after %v, want one hold of %v", a.elapsed, hold)
		}
	})

	t.Run("session removed", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: hold})
		srv, cc := serveHub(t, h)
		c, g, ended := heldJob(t, h, "a")
		w, err := NewWorker(WorkerOptions{ID: "w", Client: NewClient(srv.URL, nil), ExitWhenDone: true})
		if err != nil {
			t.Fatal(err)
		}
		ran := make(chan error, 1)
		go func() { ran <- w.Run(func() bool { return false }) }()
		awaitParked(t, c, "w")

		// The last cell settles, the job ends, its session goes: the
		// claim parked as "idle" must come back as "done".
		if err := c.Complete(g.Lease, failedRecord(g.Cell.Key), false); err != nil {
			t.Fatal(err)
		}
		if err := within(t, ended, "job end"); err != nil {
			t.Fatal(err)
		}
		if err := within(t, ran, "the one-shot worker"); err != nil {
			t.Fatal(err)
		}
		if n := cc.claims.Load(); n != 1 {
			t.Fatalf("the worker needed %d claims to learn the job was done, want its parked one", n)
		}
	})

	t.Run("worker stopped", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: hold})
		srv, cc := serveHub(t, h)
		c, _, ended := heldJob(t, h, "a")
		defer finishJob(t, c, ended)
		w, err := NewWorker(WorkerOptions{ID: "w", Client: NewClient(srv.URL, nil)})
		if err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		ran := make(chan error, 1)
		go func() { ran <- w.Run(stop.Load) }()
		awaitParked(t, c, "w")
		stop.Store(true)
		if err := within(t, ran, "the stopped worker"); err != nil {
			t.Fatal(err)
		}
		if n := cc.claims.Load(); n != 1 {
			t.Fatalf("the stopped worker made %d claims, want only the one it had parked", n)
		}
	})
}

// TestParkedClaimDroppedWithItsConnection: a claim whose request
// context has ended is never granted a cell — not on arrival, not after
// a wake — and over real HTTP a client that hangs up is noticed while
// its claim is parked.
func TestParkedClaimDroppedWithItsConnection(t *testing.T) {
	leases := func(c *Coordinator) []string {
		c.mu.Lock()
		defer c.mu.Unlock()
		var workers []string
		for _, cs := range c.byLease {
			workers = append(workers, cs.worker)
		}
		return workers
	}

	t.Run("cancelled on arrival", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: neverRetry})
		c, ended := liveJob(t, h, "a", tinySpec(1, 5))
		defer finishJob(t, c, ended)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		a := within(t, goClaim(ctx, h, "ghost"), "the cancelled claim")
		if a.resp.Status != "" || len(leases(c)) != 0 {
			t.Fatalf("cancelled claim answered %+v, leases now held by %v", a.resp, leases(c))
		}
	})

	t.Run("found gone after a wake", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: neverRetry})
		c, g, ended := heldJob(t, h, "a")
		defer finishJob(t, c, ended)
		ctx := &hungUp{Context: context.Background()}
		answer := goClaim(ctx, h, "ghost")
		awaitParked(t, c, "ghost")

		// The connection dies, then the cell comes back: the wake is the
		// only thing that can rouse this handler, and it must look at its
		// context before it scans.
		ctx.gone.Store(true)
		if err := c.Complete(g.Lease, failedRecord(g.Cell.Key), true); err != nil {
			t.Fatal(err)
		}
		a := within(t, answer, "the dead claim")
		if a.resp.Status != "" {
			t.Fatalf("dead claim answered %+v", a.resp)
		}
		if got := leases(c); len(got) != 0 {
			t.Fatalf("the returned cell %q was leased to %v", g.Cell.Key, got)
		}
	})

	t.Run("client hangs up", func(t *testing.T) {
		t.Parallel()
		h := NewHub(Options{ClaimRetry: neverRetry})
		srv, cc := serveHub(t, h)
		c, _, ended := heldJob(t, h, "a")
		defer finishJob(t, c, ended)
		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(ClaimRequest{Worker: "ghost", Max: 1})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/dist/claim", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		failed := make(chan error, 1)
		go func() {
			resp, err := srv.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
			failed <- err
		}()
		awaitParked(t, c, "ghost")
		cancel()
		if err := within(t, failed, "the client's cancelled request"); err == nil {
			t.Fatal("the parked claim was answered before the client hung up")
		}
		within(t, cc.returned, "the server-side handler of the dead connection")
	})
}

// hungUp is a request context that can end without signalling Done, so
// a parked handler learns of it only from the check it makes after a
// wake.
type hungUp struct {
	context.Context
	gone atomic.Bool
}

func (c *hungUp) Err() error {
	if c.gone.Load() {
		return context.Canceled
	}
	return nil
}

// TestRequestBodiesBounded: every POST route of the hub refuses a body
// beyond its bound with 413 — unread when the length is declared, at the
// bound when it is not — instead of buffering it.
func TestRequestBodiesBounded(t *testing.T) {
	h := NewHub(Options{ClaimRetry: time.Millisecond})
	mux := http.NewServeMux()
	h.Register(mux)
	post := func(route string, body io.Reader, declared int64) int {
		req := httptest.NewRequest(http.MethodPost, route, body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, tc := range []struct {
		route string
		limit int64
	}{
		{"/dist/claim", maxClaimBody},
		{"/dist/heartbeat", maxClaimBody},
		{"/dist/complete", maxCompleteBody},
	} {
		if code := post(tc.route, strings.NewReader("{}"), tc.limit+1); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s declaring %d bytes: status %d, want 413", tc.route, tc.limit+1, code)
		}
		if code := post(tc.route, strings.NewReader("{"), 1); code != http.StatusBadRequest {
			t.Errorf("%s with a torn body: status %d, want 400", tc.route, code)
		}
	}
	// Undeclared (chunked) length: a well-formed JSON string that does not
	// end within the bound is cut off there. The routes share the reader;
	// the smallest bound keeps the test from buffering 64 MiB.
	endless := io.MultiReader(strings.NewReader(`{"worker":"`), zeros{})
	if code := post("/dist/claim", endless, -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("/dist/claim with an endless body: status %d, want 413", code)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
