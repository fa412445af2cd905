package batch

import (
	"errors"
	"sort"
	"sync"
)

// Pool shares live batched-inference solvers across independent sweeps
// and campaigns. Historically one Solver was constructed per sweep and
// closed with it; a long-running service runs many campaigns whose DL
// requesters should join and leave one live server instead (clients
// already register and unregister dynamically — the Pool extends that
// join/leave discipline to the server's own lifetime). Solvers are
// memoized by caller-chosen key; the first request under a key builds
// the solver (typically training or loading a model — minutes, so the
// build runs outside the pool lock and concurrent requesters for the
// same key wait for it), later requests share it. Determinism makes the
// sharing safe: a scenario's result depends only on its own request
// rows, never on which other campaigns' rows share a flush.
//
// Ownership: the Pool owns every solver it built. Callers must not
// Close a pooled solver; they stop using it (their clients unregister)
// and Close the pool itself when the service drains.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]*poolEntry
	closed  bool
}

// poolEntry is one memoized solver slot. building guards the window
// where the first requester constructs the solver outside the lock.
type poolEntry struct {
	building bool
	s        *Solver
}

// NewPool returns an empty solver pool.
func NewPool() *Pool {
	p := &Pool{entries: make(map[string]*poolEntry)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Solver returns the memoized solver under key, invoking build to
// construct it on first request. Concurrent calls with the same key
// block until the one in-flight build finishes and then share its
// result; a failed build is not cached — the next request retries. The
// key must capture everything the built solver depends on (model
// fingerprint inputs, batch cap): two keys never share a network, and
// one key must always describe bit-identical solvers.
func (p *Pool) Solver(key string, build func() (*Solver, error)) (*Solver, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("batch: pool closed")
		}
		e := p.entries[key]
		if e == nil {
			break
		}
		if !e.building {
			s := e.s
			p.mu.Unlock()
			return s, nil
		}
		p.cond.Wait()
	}
	e := &poolEntry{building: true}
	p.entries[key] = e
	p.mu.Unlock()

	s, err := build()

	p.mu.Lock()
	if err != nil {
		delete(p.entries, key)
	} else {
		e.building = false
		e.s = s
	}
	closed := p.closed
	p.cond.Broadcast()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if closed {
		// The pool drained while we were building: Close could not see
		// this solver, so release it here instead of leaking its server.
		s.Close()
		return nil, errors.New("batch: pool closed")
	}
	return s, nil
}

// Close stops every pooled solver and rejects further requests. Callers
// must have finished their sweeps first (a solver's clients must be
// closed before its server — the usual Solver.Close contract). Close is
// idempotent; in-flight builds complete, notice the closed pool, and
// release their solver themselves.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	keys := make([]string, 0, len(p.entries))
	for key := range p.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var solvers []*Solver
	for _, key := range keys {
		if e := p.entries[key]; !e.building {
			solvers = append(solvers, e.s)
		}
	}
	p.entries = make(map[string]*poolEntry)
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, s := range solvers {
		s.Close()
	}
}
