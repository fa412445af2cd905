package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); Op numbers the workload
// operation it belongs to, so the spans of one op share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// Self is End-Start minus the time covered by child spans; filled
	// in when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory for the length of a traced run. A nil
// tracer records nothing, so an untraced run pays one nil check per
// boundary. The mutex is for the fleet workload, whose HTTP middleware
// records from handler goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// durations returns, in the given unit, the length of every closed span
// called name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// writeTraces emits the spans of every traced workload as JSON lines
// with self times filled in.
func writeTraces(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.withSelfTimes() {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// withSelfTimes returns the spans with Self filled in.
func (t *tracer) withSelfTimes() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	// Children of one parent never overlap here (each parent records
	// from one goroutine), so covered time is the plain sum.
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	return t.spans
}
