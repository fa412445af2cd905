package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/sweep"
)

// Hub routes distributed-execution RPCs to the coordinators of the
// jobs currently running. The serving daemon owns one Hub for its
// lifetime; each distributed job registers a coordinator for the
// duration of its campaign. Workers are job-agnostic: a claim scans
// the live jobs (in job-id order, for determinism) and the response
// tells the worker which job its lease belongs to.
//
// A claim that finds nothing grantable is held, not answered: the
// handler parks on the hub's one wake signal and rescans when a job is
// registered or removed, a lease expires, or a transient failure
// returns a cell to the pool. Only after Options.ClaimRetry without a
// grant does it answer "idle" or "done", so a worker's next cell costs
// it a wake-up, not a poll period.
type Hub struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*Coordinator
	// wake is closed and replaced by every poke; a parked claim waits on
	// the channel it read before scanning, so a poke that lands during
	// its scan is not lost.
	wake chan struct{}
}

// NewHub returns a hub whose coordinators run with opts.
func NewHub(opts Options) *Hub {
	return &Hub{
		opts:     opts.withDefaults(),
		sessions: make(map[string]*Coordinator),
		wake:     make(chan struct{}),
	}
}

// poke wakes every parked claim to rescan. Coordinators call it with
// their own lock held; the hub never calls into a coordinator under
// h.mu, so the order coordinator -> hub cannot invert.
func (h *Hub) poke() {
	h.mu.Lock()
	h.pokeLocked()
	h.mu.Unlock()
}

// pokeLocked is poke for callers that hold h.mu.
func (h *Hub) pokeLocked() {
	close(h.wake)
	h.wake = make(chan struct{})
}

// Run executes one distributed campaign: it creates the job's
// coordinator over journalPath, serves its cells to whatever workers
// claim from the hub, and blocks until the campaign completes (or
// drains via spec.Interrupt). It is the distributed counterpart of
// campaign.Run with an identical contract: same result shape, same
// journal, same digest.
//
// bundles are the trained model bundles the campaign's DL methods
// need (BundleRefFromFile over the trainer's persisted artifacts);
// grants for those methods carry the refs and the hub's bundle
// endpoint serves the bytes. Model-free campaigns pass none.
func (h *Hub) Run(job, journalPath string, spec campaign.Spec, bundles ...BundleRef) ([]sweep.Result, error) {
	c, err := NewCoordinator(job, journalPath, spec, h.opts, bundles...)
	if err != nil {
		return nil, err
	}
	c.wake = h.poke
	h.mu.Lock()
	h.sessions[job] = c
	h.pokeLocked()
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.sessions, job)
		h.pokeLocked()
		h.mu.Unlock()
	}()
	return c.Run()
}

// coordinator returns the live coordinator of a job, or nil.
func (h *Hub) coordinator(job string) *Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sessions[job]
}

// live returns the live coordinators in job-id order together with the
// wake channel current at that instant: whatever changes after the
// snapshot closes the returned channel.
func (h *Hub) live() ([]*Coordinator, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]string, 0, len(h.sessions))
	for id := range h.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	live := make([]*Coordinator, len(ids))
	for i, id := range ids {
		live[i] = h.sessions[id]
	}
	return live, h.wake
}

// Wire types. Scenarios cross the wire as their full JSON form —
// Go's float64 marshaling round-trips bit-exactly and the uint64 seed
// decodes into a typed field without precision loss — so a worker
// reconstructs exactly the cell the coordinator planned. Methods
// cross as *names* only (factories are code, not data): the claim
// carries the worker's supported method names and the coordinator
// only grants cells the worker can actually run.

// ClaimRequest asks the hub for up to Max cells to execute.
type ClaimRequest struct {
	// Worker identifies the claimant; it lands in lease ids and logs.
	Worker string `json:"worker"`
	// Methods are the method names this worker can execute. Empty
	// claims anything (only sensible for method-name-agnostic tests).
	Methods []string `json:"methods,omitempty"`
	// Max is the batch size: the largest number of cells the worker
	// wants in one round-trip (<= 0 means 1). The coordinator may
	// grant fewer — it divides the pending pool across the workers it
	// has seen.
	Max int `json:"max,omitempty"`
}

// CellGrant is one leased cell inside a ClaimResponse. Each granted
// cell has its own lease: heartbeats, expiry and completion stay
// cell-granular however many cells one claim returned.
type CellGrant struct {
	// Lease is the lease id the worker heartbeats and completes with.
	Lease string `json:"lease"`
	// TTLMS is the lease lifetime; heartbeat well within it.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Key, Index, Scenario and Method are the cell (see campaign.Cell);
	// SkipFit/KeepFinalState are the sweep options the key was built
	// under.
	Key            string         `json:"key,omitempty"`
	Index          int            `json:"index,omitempty"`
	Scenario       sweep.Scenario `json:"scenario"`
	Method         string         `json:"method,omitempty"`
	SkipFit        bool           `json:"skip_fit,omitempty"`
	KeepFinalState bool           `json:"keep_final_state,omitempty"`
	// Bundles are the trained model bundles the cell's method needs;
	// fetch them from GET /bundles/{fingerprint} (empty for model-free
	// methods).
	Bundles []BundleRef `json:"bundles,omitempty"`
}

// ClaimResponse is the hub's answer: cells to run, or a hint to claim
// again, or the news that all known jobs are done.
type ClaimResponse struct {
	// Status is "cell" (run the enclosed cells), "idle" (nothing became
	// claimable while the hub held the claim) or "done" (every live
	// job's cells are settled; also returned when no job is live).
	Status string `json:"status"`
	// RetryMS is the period the next claim after "idle"/"done" should
	// keep, measured from when the answered claim was sent: the hub has
	// already held the claim that long, so a worker that subtracts the
	// call's duration claims again at once.
	RetryMS int64 `json:"retry_ms,omitempty"`
	// Job identifies the granting job ("cell" only); every cell of one
	// response belongs to it.
	Job string `json:"job,omitempty"`
	// Cells are the granted cells, at most the request's Max.
	Cells []CellGrant `json:"cells,omitempty"`
}

// HeartbeatRequest extends one or more leases of a job in one RPC (a
// batched worker holds several at once).
type HeartbeatRequest struct {
	Job    string   `json:"job"`
	Leases []string `json:"leases"`
}

// HeartbeatResponse acknowledges the extension. Leases that are no
// longer current come back in Expired — cell-granular preemption; the
// RPC itself is 410 only when every lease it named is gone.
type HeartbeatResponse struct {
	TTLMS   int64    `json:"ttl_ms"`
	Expired []string `json:"expired,omitempty"`
}

// CompleteRequest reports a finished cell for journaling.
type CompleteRequest struct {
	Job   string `json:"job"`
	Lease string `json:"lease"`
	// Record is the worker-serialized outcome (campaign.NewRecord,
	// sanitized before sending so it is guaranteed to marshal).
	// Attempts is coordinator-owned and ignored on the way in.
	Record campaign.Record `json:"record"`
	// Transient is the worker's campaign.Transient verdict on the
	// original error, decided before flattening it to a string.
	Transient bool `json:"transient,omitempty"`
}

// Register mounts the distributed-execution endpoints on mux:
//
//	POST /dist/claim          ClaimRequest -> ClaimResponse
//	POST /dist/heartbeat      HeartbeatRequest -> HeartbeatResponse | 410
//	POST /dist/complete       CompleteRequest -> 204 | 410
//	GET  /bundles/{fingerprint}  model bundle bytes | 404
//
// Request bodies are bounded (413 beyond maxClaimBody / maxCompleteBody).
// 410 Gone is the wire form of ErrLeaseExpired/ErrUnknownJob: the
// lease (or its whole job) is no longer current and the worker must
// discard the cell without retrying. The bundle endpoint serves the
// hub's Options.BundleDir; workers verify downloads against the
// digest their lease's BundleRef carried, so the endpoint itself
// needs no integrity handshake.
func (h *Hub) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/claim", h.handleClaim)
	mux.HandleFunc("POST /dist/heartbeat", h.handleHeartbeat)
	mux.HandleFunc("POST /dist/complete", h.handleComplete)
	mux.HandleFunc("GET /bundles/{fingerprint}", h.handleBundle)
}

// Request body bounds. Claims and heartbeats are a worker id plus a
// few names or lease ids; a completion carries one cell's record
// (tens of KB with a kept final state) and gets the limit Client.do
// applies to responses.
const (
	maxClaimBody    = 1 << 20
	maxCompleteBody = 64 << 20
)

// decodeBody reads at most limit bytes of r's body and unmarshals them
// into v, answering 413 or 400 itself when it cannot; what names the
// RPC in the error text. A declared length over the limit is refused
// unread. Reading to EOF (rather than streaming a decoder) is also what
// lets net/http notice a client that goes away while its claim is
// parked.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	if r.ContentLength > limit {
		http.Error(w, fmt.Sprintf("dist: %s request of %d bytes exceeds the %d-byte bound", what, r.ContentLength, limit),
			http.StatusRequestEntityTooLarge)
		return false
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "dist: bad "+what+" request: "+err.Error(), code)
	return false
}

// handleClaim grants the claimant cells, holding the request for up to
// Options.ClaimRetry while there are none: it rescans on every hub wake
// and answers "idle"/"done" — whatever its last scan found — only when
// the hold runs out. A claimant whose request context ends while parked
// is dropped before the next scan; a lease granted to a dead connection
// would be lost for a full LeaseTTL.
func (h *Hub) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !decodeBody(w, r, maxClaimBody, "claim", &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "dist: claim needs a worker id", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	hold := time.NewTimer(h.opts.ClaimRetry)
	defer hold.Stop()
	for {
		jobs, wake := h.live()
		if ctx.Err() != nil {
			return
		}
		resp, err := h.claim(jobs, req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if resp.Status == "cell" {
			writeJSON(w, resp)
			return
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return
		case <-hold.C:
			writeJSON(w, resp)
			return
		}
	}
}

// claim scans jobs in order for cells req's worker can run; all cells
// of one response come from one job. With nothing to grant the response
// is "done" when every scanned job is settled (or none is live) and
// "idle" otherwise.
func (h *Hub) claim(jobs []*Coordinator, req ClaimRequest) (ClaimResponse, error) {
	allDone := true
	for _, c := range jobs {
		grants, done, err := c.ClaimBatch(req.Worker, req.Methods, req.Max)
		if err != nil {
			return ClaimResponse{}, err
		}
		if len(grants) > 0 {
			resp := ClaimResponse{Status: "cell", Job: c.job}
			for _, g := range grants {
				resp.Cells = append(resp.Cells, CellGrant{
					Lease: g.Lease, TTLMS: g.TTL.Milliseconds(),
					Key: g.Cell.Key, Index: g.Cell.Index,
					Scenario: g.Cell.Scenario, Method: g.Cell.Method.Name,
					SkipFit: g.SkipFit, KeepFinalState: g.KeepFinalState,
					Bundles: g.Bundles,
				})
			}
			return resp, nil
		}
		if !done {
			allDone = false
		}
	}
	status := "idle"
	if allDone {
		status = "done"
	}
	return ClaimResponse{Status: status, RetryMS: h.opts.ClaimRetry.Milliseconds()}, nil
}

// handleHeartbeat extends the request's leases; only an all-gone batch
// is 410.
func (h *Hub) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, maxClaimBody, "heartbeat", &req) {
		return
	}
	c := h.coordinator(req.Job)
	if c == nil {
		http.Error(w, ErrUnknownJob.Error(), http.StatusGone)
		return
	}
	ttl, expired := c.HeartbeatBatch(req.Leases)
	if len(req.Leases) > 0 && len(expired) == len(req.Leases) {
		http.Error(w, ErrLeaseExpired.Error(), http.StatusGone)
		return
	}
	writeJSON(w, HeartbeatResponse{TTLMS: ttl.Milliseconds(), Expired: expired})
}

// handleBundle streams one model bundle from the hub's bundle
// directory. Fingerprints are validated (no path separators, no "..")
// before touching the filesystem; unknown fingerprints — and a hub
// with no bundle directory at all — are 404.
func (h *Hub) handleBundle(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if err := validFingerprint(fp); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if h.opts.BundleDir == "" {
		http.Error(w, "dist: no bundle directory configured", http.StatusNotFound)
		return
	}
	path := filepath.Join(h.opts.BundleDir, fp+bundleExt)
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "dist: unknown bundle fingerprint", http.StatusNotFound)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if st, err := f.Stat(); err == nil {
		w.Header().Set("Content-Length", fmt.Sprintf("%d", st.Size()))
	}
	io.Copy(w, f)
}

// handleComplete journals one finished cell.
func (h *Hub) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, maxCompleteBody, "complete", &req) {
		return
	}
	c := h.coordinator(req.Job)
	if c == nil {
		http.Error(w, ErrUnknownJob.Error(), http.StatusGone)
		return
	}
	if err := c.Complete(req.Lease, req.Record, req.Transient); err != nil {
		writeRPCError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeRPCError maps coordinator errors onto wire status codes: lease
// preemptions are 410 Gone (discard, do not retry), everything else
// 500 (transient from the worker's point of view).
func writeRPCError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrUnknownJob) {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but note it in the status
		// already sent. The client's decode error surfaces it.
		_ = err
	}
}
