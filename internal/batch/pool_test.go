package batch

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Len reports how many solvers the pool currently holds (completed
// builds only).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.entries {
		if !e.building {
			n++
		}
	}
	return n
}

// slotPred is a trivial predictor for pool plumbing tests.
type slotPred struct{}

func (slotPred) PredictBatch(batch int, in, out []float64) { copy(out, in) }

func newPoolSolver(t *testing.T) *Solver {
	t.Helper()
	srv, err := NewServer(slotPred{}, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Solver{Server: srv}
}

// TestPoolMemoizesConcurrentBuilds: N concurrent requests for one key
// run the build exactly once and all share its solver.
func TestPoolMemoizesConcurrentBuilds(t *testing.T) {
	p := NewPool()
	defer p.Close()
	var builds atomic.Int64
	const n = 8
	got := make([]*Solver, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := p.Solver("shared", func() (*Solver, error) {
				builds.Add(1)
				return newPoolSolver(t), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = s
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("request %d received a different solver", i)
		}
	}
	if p.Len() != 1 {
		t.Fatalf("pool holds %d solvers, want 1", p.Len())
	}
}

// TestPoolKeysAreIndependent: different keys build and hold different
// solvers.
func TestPoolKeysAreIndependent(t *testing.T) {
	p := NewPool()
	defer p.Close()
	a, err := p.Solver("a", func() (*Solver, error) { return newPoolSolver(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Solver("b", func() (*Solver, error) { return newPoolSolver(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct keys shared one solver")
	}
	if p.Len() != 2 {
		t.Fatalf("pool holds %d solvers, want 2", p.Len())
	}
}

// TestPoolBuildErrorNotCached: a failed build is not memoized — the
// next request for the key retries and can succeed.
func TestPoolBuildErrorNotCached(t *testing.T) {
	p := NewPool()
	defer p.Close()
	boom := errors.New("boom")
	if _, err := p.Solver("k", func() (*Solver, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the build error", err)
	}
	s, err := p.Solver("k", func() (*Solver, error) { return newPoolSolver(t), nil })
	if err != nil || s == nil {
		t.Fatalf("retry after failed build: %v", err)
	}
}

// TestPoolClose: Close stops the pooled servers and rejects further
// requests; it is idempotent.
func TestPoolClose(t *testing.T) {
	p := NewPool()
	s, err := p.Solver("k", func() (*Solver, error) { return newPoolSolver(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if _, err := s.Server.NewClient(); err == nil {
		t.Fatal("pooled server still accepts clients after pool Close")
	}
	if _, err := p.Solver("k", func() (*Solver, error) { return newPoolSolver(t), nil }); err == nil {
		t.Fatal("closed pool accepted a request")
	}
}

// TestPoolCloseDuringBuild: a build in flight when the pool closes
// completes, is released, and its requester gets the closed error.
func TestPoolCloseDuringBuild(t *testing.T) {
	p := NewPool()
	started := make(chan struct{})
	release := make(chan struct{})
	errCh := make(chan error, 1)
	var built *Solver
	go func() {
		_, err := p.Solver("k", func() (*Solver, error) {
			close(started)
			<-release
			built = newPoolSolver(t)
			return built, nil
		})
		errCh <- err
	}()
	<-started
	p.Close() // does not block on the in-flight build
	close(release)
	if err := <-errCh; err == nil {
		t.Fatal("build finishing into a closed pool did not error")
	}
	if _, err := built.Server.NewClient(); err == nil {
		t.Fatal("orphaned build's server was not released")
	}
}
