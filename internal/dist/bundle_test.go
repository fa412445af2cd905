package dist

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlpic/internal/campaign"
	"dlpic/internal/core"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// Entries returns the cached fingerprints, least recently used first.
func (c *BundleCache) Entries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lru...)
}

// writeBundle writes fake bundle bytes under a store-shaped name and
// returns (path, ref).
func writeBundle(t *testing.T, dir, method, fingerprint string, data []byte) (string, BundleRef) {
	t.Helper()
	path := filepath.Join(dir, fingerprint+bundleExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := BundleRefFromFile(method, path)
	if err != nil {
		t.Fatal(err)
	}
	return path, ref
}

// TestBundleCacheDigestMismatch: a fetched payload that hashes wrong is
// rejected with a transient error and never cached; a cached file that
// rots is discarded and refetched rather than served.
func TestBundleCacheDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	_, ref := writeBundle(t, t.TempDir(), "mlp", "mlp-0011223344556677", []byte("genuine model bytes"))
	cache, err := NewBundleCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Tampered download: rejected, transient, nothing cached.
	_, _, err = cache.Get(ref, func() ([]byte, error) { return []byte("tampered"), nil })
	if err == nil || !campaign.Transient(err) || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tampered fetch = %v, want transient digest-mismatch error", err)
	}
	if got := cache.Entries(); len(got) != 0 {
		t.Fatalf("rejected payload entered the cache: %v", got)
	}
	if _, err := os.Stat(cache.path(ref.Fingerprint)); !os.IsNotExist(err) {
		t.Fatal("rejected payload left a file behind")
	}
	// Genuine download: cached, then a hit.
	p, hit, err := cache.Get(ref, func() ([]byte, error) { return []byte("genuine model bytes"), nil })
	if err != nil || hit {
		t.Fatalf("first genuine fetch = (%q, %v, %v)", p, hit, err)
	}
	if _, hit, err = cache.Get(ref, func() ([]byte, error) {
		t.Fatal("cache hit still fetched")
		return nil, nil
	}); err != nil || !hit {
		t.Fatalf("second get = (hit=%v, %v), want cache hit", hit, err)
	}
	// Rot the cached file: the next get refetches instead of serving it.
	if err := os.WriteFile(cache.path(ref.Fingerprint), []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	fetched := false
	if _, hit, err = cache.Get(ref, func() ([]byte, error) {
		fetched = true
		return []byte("genuine model bytes"), nil
	}); err != nil || hit || !fetched {
		t.Fatalf("rotten entry get = (hit=%v, fetched=%v, %v), want refetch", hit, fetched, err)
	}
}

// TestBundleCacheEvictionOrder: the cache evicts least-recently-used
// first, a hit refreshes recency, and eviction removes the file.
func TestBundleCacheEvictionOrder(t *testing.T) {
	src := t.TempDir()
	cache, err := NewBundleCache(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var refs []BundleRef
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("model %d", i))
		_, ref := writeBundle(t, src, "mlp", fmt.Sprintf("mlp-%016x", i), data)
		refs = append(refs, ref)
	}
	fetcher := func(i int) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(fmt.Sprintf("model %d", i)), nil }
	}
	for i := 0; i < 2; i++ {
		if _, _, err := cache.Get(refs[i], fetcher(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, hit, err := cache.Get(refs[0], fetcher(0)); err != nil || !hit {
		t.Fatalf("touch = (hit=%v, %v)", hit, err)
	}
	if _, _, err := cache.Get(refs[2], fetcher(2)); err != nil {
		t.Fatal(err)
	}
	want := []string{refs[0].Fingerprint, refs[2].Fingerprint}
	if got := cache.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after eviction = %v, want %v", got, want)
	}
	if _, err := os.Stat(cache.path(refs[1].Fingerprint)); !os.IsNotExist(err) {
		t.Fatal("evicted bundle's file survived")
	}
	// A fresh cache over the same directory adopts the survivors.
	cache2, err := NewBundleCache(cache.dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache2.Entries(); len(got) != 2 {
		t.Fatalf("reopened cache adopted %v, want 2 entries", got)
	}
}

// TestBatchedClaimLeaseAccounting: a batch's leases are independent —
// letting one expire returns only that cell to the pool, the siblings'
// leases keep working, and the expired lease's late completion is
// rejected. Also pins the fair-share cap: once a second claimer is
// seen, one worker cannot drain the whole pool in a single batch.
func TestBatchedClaimLeaseAccounting(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	spec := tinySpec(4, 5)
	c, err := NewCoordinator("job", filepath.Join(dir, "j.jsonl"), spec, Options{
		LeaseTTL: time.Second, Clock: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	grants, done, err := c.ClaimBatch("wA", nil, 3)
	if err != nil || done || len(grants) != 3 {
		t.Fatalf("batch claim = (%d grants, done=%v, %v), want 3", len(grants), done, err)
	}
	// Heartbeat only the first two; the third goes silent past the TTL.
	clock.Advance(700 * time.Millisecond)
	live := []string{grants[0].Lease, grants[1].Lease}
	if _, expired := c.HeartbeatBatch(live); len(expired) != 0 {
		t.Fatalf("live leases reported expired: %v", expired)
	}
	clock.Advance(700 * time.Millisecond)
	// 1.4s total: the un-heartbeated third lease is past its 1s TTL, the
	// extended siblings are not.
	_, expired := c.HeartbeatBatch([]string{grants[0].Lease, grants[1].Lease, grants[2].Lease})
	if !reflect.DeepEqual(expired, []string{grants[2].Lease}) {
		t.Fatalf("expired = %v, want exactly the silent sibling %q", expired, grants[2].Lease)
	}
	// The expired cell is re-leasable; the siblings' cells are not (the
	// pool also holds the never-claimed 4th cell, so accept either, but
	// the live siblings must stay off the market).
	g2, _, err := c.Claim("wB", nil)
	if err != nil || g2 == nil {
		t.Fatalf("reclaim after sibling expiry: (%v, %v)", g2, err)
	}
	if g2.Cell.Key == grants[0].Cell.Key || g2.Cell.Key == grants[1].Cell.Key {
		t.Fatalf("sibling expiry released a live lease's cell %q", g2.Cell.Key)
	}
	// The expired lease's late completion journals nothing.
	rec := runGrant(grants[2])
	if err := c.Complete(grants[2].Lease, rec, false); err != ErrLeaseExpired {
		t.Fatalf("stale sibling completion = %v, want ErrLeaseExpired", err)
	}
	// The live siblings complete normally.
	for _, g := range grants[:2] {
		if err := c.Complete(g.Lease, runGrant(g), false); err != nil {
			t.Fatalf("live sibling completion: %v", err)
		}
	}
	// Fair share on a fresh pool: once two claimers are seen, a max=4
	// batch over 3 eligible cells grants ceil(3/2)=2, not all 3.
	c2, err := NewCoordinator("job2", filepath.Join(dir, "j2.jsonl"), spec, Options{
		LeaseTTL: time.Second, Clock: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, _, err := c2.Claim("wB", nil); err != nil || g == nil {
		t.Fatalf("registering claim: (%v, %v)", g, err)
	}
	batch, _, err := c2.ClaimBatch("wA", nil, 4)
	if err != nil || len(batch) != 2 {
		t.Fatalf("fair-share batch = %d grants (%v), want ceil(3/2)=2", len(batch), err)
	}
}

// TestBundleEndpointAndFaultPlan: the hub serves bundles by
// fingerprint, rejects traversal shapes, 404s unknowns, and the client
// fault seam covers the bundle kind — a bundle-scoped drop plan kills
// downloads deterministically without touching the lease RPCs.
func TestBundleEndpointAndFaultPlan(t *testing.T) {
	bundleDir := t.TempDir()
	data := []byte("weights weights weights")
	_, ref := writeBundle(t, bundleDir, "mlp", "mlp-00aa11bb22cc33dd", data)

	// No job ever runs here: the claim below is held for ClaimRetry.
	hub := NewHub(Options{BundleDir: bundleDir, ClaimRetry: time.Millisecond})
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Clean fetch round-trips the bytes.
	clean := NewClient(srv.URL, nil)
	got, err := clean.FetchBundle(ref.Fingerprint)
	if err != nil || string(got) != string(data) {
		t.Fatalf("FetchBundle = (%d bytes, %v)", len(got), err)
	}
	// Unknown fingerprint is a permanent (4xx) failure, not a transient.
	if _, err := clean.FetchBundle("mlp-ffffffffffffffff"); err == nil || campaign.Transient(err) {
		t.Fatalf("unknown fingerprint fetch = %v, want permanent error", err)
	}
	// Traversal shapes are rejected before the filesystem.
	for _, fp := range []string{"..", "a/../b", ".hidden", ""} {
		resp, err := http.Get(srv.URL + "/bundles/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Fatalf("fingerprint %q served with status %d", fp, resp.StatusCode)
		}
	}
	// A bundle-scoped drop plan: every bundle fetch drops (transient),
	// while claim RPCs run fault-free.
	faulty := NewClient(srv.URL, &FaultPlan{Seed: 5, Kinds: map[string]*FaultPlan{
		"bundle": {Drop: 1},
	}})
	for i := 0; i < 3; i++ {
		if _, err := faulty.FetchBundle(ref.Fingerprint); err == nil || !campaign.Transient(err) {
			t.Fatalf("bundle fetch %d under drop=1 plan = %v, want transient drop", i, err)
		}
	}
	if _, err := faulty.Claim("w", nil, 1); err != nil {
		t.Fatalf("claim perturbed by bundle-scoped plan: %v", err)
	}
}

// TestEndToEndBundleBackedDigest is the tentpole acceptance in
// miniature: a campaign whose method is bundle-backed runs through the
// hub on workers that have no local factory for it — they fetch the
// bundle once, serve later cells from cache, and the distributed
// digest is bit-identical to the serial run's. Injected bundle-fetch
// drops on one worker are absorbed by the in-cell retry.
func TestEndToEndBundleBackedDigest(t *testing.T) {
	factory := func(sc sweep.Scenario) (pic.FieldMethod, error) {
		spec := phasespace.DefaultSpec(sc.Cfg.Length)
		spec.NX = sc.Cfg.Cells
		return core.NewOracleSolver(sc.Cfg, spec)
	}
	spec := tinySpec(3, 5)
	spec.Opts.Methods = []sweep.MethodSpec{{Name: "oracle-dl", Factory: factory}}
	spec.Scenarios = sweep.Grid(tinyBase(), []float64{0.15, 0.16, 0.17}, []float64{0.01}, 1, 5, 3)
	serial, err := campaign.Run("", spec)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.Digest(serial)

	// The "trained bundle" the coordinator ships; its bytes stand in for
	// gob-encoded weights (the test factory carries its own weights, so
	// any payload exercises the transfer/verify/cache path).
	bundleDir := t.TempDir()
	path, ref := writeBundle(t, bundleDir, "oracle-dl", "oracle-dl-0123456789abcdef", []byte("oracle weights"))

	hub := NewHub(Options{LeaseTTL: 2 * time.Second, ClaimRetry: 10 * time.Millisecond, BundleDir: bundleDir})
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	journal := filepath.Join(t.TempDir(), "job.jsonl")
	type out struct {
		results []sweep.Result
		err     error
	}
	doneCh := make(chan out, 1)
	go func() {
		results, err := hub.Run("job", journal, spec, ref)
		doneCh <- out{results, err}
	}()

	var wg sync.WaitGroup
	logs := make([]*strings.Builder, 2)
	for i := 0; i < 2; i++ {
		logs[i] = &strings.Builder{}
		var plan *FaultPlan
		if i == 1 {
			// Drop roughly half this worker's bundle fetches; the
			// in-cell retry must ride through without burning cell
			// attempts.
			plan = &FaultPlan{Seed: 1, Kinds: map[string]*FaultPlan{"bundle": {Drop: 0.5}}}
		}
		cache, err := NewBundleCache(filepath.Join(t.TempDir(), "cache"), 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerOptions{
			ID:            fmt.Sprintf("w%d", i),
			Client:        NewClient(srv.URL, plan),
			BundleMethods: []string{"oracle-dl"},
			Cache:         cache,
			BundleMethod: func(method, bundlePath string) (sweep.MethodSpec, error) {
				data, err := os.ReadFile(bundlePath)
				if err != nil {
					return sweep.MethodSpec{}, err
				}
				if string(data) != "oracle weights" {
					return sweep.MethodSpec{}, fmt.Errorf("bundle bytes corrupted: %q", data)
				}
				return sweep.MethodSpec{Name: method, Factory: factory}, nil
			},
			ClaimBatch:   2,
			Poll:         5 * time.Millisecond,
			Retry:        campaign.RetryPolicy{BaseDelay: 2 * time.Millisecond, Seed: uint64(i)},
			ExitWhenDone: true,
			Log:          logs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(func() bool { return false })
		}()
	}

	res := <-doneCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	wg.Wait()
	if err := sweep.FirstError(res.results); err != nil {
		t.Fatal(err)
	}
	if got := campaign.Digest(res.results); got != want {
		t.Fatalf("bundle-backed distributed digest %s != serial %s", got, want)
	}
	// One download per worker, cache hits after: across the fleet the
	// download count equals the number of workers that ran cells, and
	// any worker that ran more than one cell logged a cache hit.
	for i, lg := range logs {
		s := lg.String()
		downloads := strings.Count(s, "downloaded and cached")
		hits := strings.Count(s, "cache hit")
		starts := strings.Count(s, ": start (lease")
		if starts > 0 && downloads != 1 {
			t.Fatalf("worker %d ran %d cells with %d downloads, want exactly 1:\n%s", i, starts, downloads, s)
		}
		if starts > 1 && hits != starts-1 {
			t.Fatalf("worker %d ran %d cells with %d cache hits, want %d:\n%s", i, starts, hits, starts-1, s)
		}
	}
	// The shipped file never changed (workers fetched copies).
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// memoRig is a worker wired to a bundle-serving hub, with every way a
// resolve can be observed counted: downloads at the hub, constructor
// calls, and the bytes each constructed spec was built from (carried in
// the spec's name).
type memoRig struct {
	worker    *Worker
	cache     *BundleCache
	bundleDir string
	downloads atomic.Int64
	built     int
	failBuild bool
	log       strings.Builder
}

func newMemoRig(t *testing.T) *memoRig {
	t.Helper()
	rig := &memoRig{bundleDir: t.TempDir()}
	hub := NewHub(Options{BundleDir: rig.bundleDir})
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/bundles/") {
			rig.downloads.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	var err error
	if rig.cache, err = NewBundleCache(t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	rig.worker, err = NewWorker(WorkerOptions{
		ID: "w", Client: NewClient(srv.URL, nil), Cache: rig.cache,
		BundleMethods: []string{"mlp"}, Poll: time.Millisecond, Log: &rig.log,
		BundleMethod: func(method, path string) (sweep.MethodSpec, error) {
			rig.built++
			data, err := os.ReadFile(path)
			if err != nil {
				return sweep.MethodSpec{}, err
			}
			if rig.failBuild {
				return sweep.MethodSpec{}, fmt.Errorf("corrupt bundle %q", data)
			}
			return sweep.MethodSpec{Name: method + "=" + string(data)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// resolve runs the worker's method resolution for a grant carrying refs.
func (rig *memoRig) resolve(refs ...BundleRef) (string, error) {
	spec, err := rig.worker.methodFor(CellGrant{Method: "mlp", Bundles: refs})
	return spec.Name, err
}

// expect checks one resolve's outcome and the running counters.
func (rig *memoRig) expect(t *testing.T, what, gotSpec string, err error, wantSpec string, downloads, built int) {
	t.Helper()
	if err != nil || gotSpec != wantSpec {
		t.Fatalf("%s: resolved (%q, %v), want %q", what, gotSpec, err, wantSpec)
	}
	if got := int(rig.downloads.Load()); got != downloads || rig.built != built {
		t.Fatalf("%s: %d downloads and %d constructions so far, want %d and %d", what, got, rig.built, downloads, built)
	}
}

// TestResolveMemoKeyedByDigest: identical refs resolve once — one
// download, one read of the disk cache, one construction — and what
// they resolved to no longer depends on the cached file; any change of
// digest or fingerprint goes back through the verifying cache path.
func TestResolveMemoKeyedByDigest(t *testing.T) {
	rig := newMemoRig(t)
	_, v1 := writeBundle(t, rig.bundleDir, "mlp", "mlp-00000000000000aa", []byte("weights v1"))

	spec, err := rig.resolve(v1)
	rig.expect(t, "first grant", spec, err, "mlp=weights v1", 1, 1)
	spec, err = rig.resolve(v1)
	rig.expect(t, "same refs again", spec, err, "mlp=weights v1", 1, 1)
	if hits := strings.Count(rig.log.String(), "bundle "+v1.Fingerprint+": cache hit"); hits != 1 {
		t.Fatalf("memo hit logged %d cache-hit lines, want 1:\n%s", hits, rig.log.String())
	}

	// Rot, then delete, the cached file: cells of the same digest keep
	// running the model that was verified, and nothing is fetched.
	cached := rig.cache.path(v1.Fingerprint)
	if err := os.WriteFile(cached, []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err = rig.resolve(v1)
	rig.expect(t, "cached file corrupted", spec, err, "mlp=weights v1", 1, 1)
	if err := os.Remove(cached); err != nil {
		t.Fatal(err)
	}
	spec, err = rig.resolve(v1)
	rig.expect(t, "cached file deleted", spec, err, "mlp=weights v1", 1, 1)

	// Same fingerprint, new bytes: a new digest is a new model.
	_, v2 := writeBundle(t, rig.bundleDir, "mlp", v1.Fingerprint, []byte("weights v2"))
	spec, err = rig.resolve(v2)
	rig.expect(t, "digest changed", spec, err, "mlp=weights v2", 2, 2)
	// The memo keeps one entry per method: the old digest resolves afresh
	// and is verified again — the cached v2 bytes do not pass for v1.
	spec, err = rig.resolve(v1)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("stale digest resolved (%q, %v), want a digest mismatch: the hub now serves v2", spec, err)
	}
	// New fingerprint, same bytes as v2: still not the remembered refs.
	_, v3 := writeBundle(t, rig.bundleDir, "mlp", "mlp-00000000000000bb", []byte("weights v2"))
	downloads, built := int(rig.downloads.Load()), rig.built
	spec, err = rig.resolve(v3)
	rig.expect(t, "fingerprint changed", spec, err, "mlp=weights v2", downloads+1, built+1)
	// The informational size is not part of a bundle's identity.
	resized := v3
	resized.Size++
	spec, err = rig.resolve(resized)
	rig.expect(t, "size differs only", spec, err, "mlp=weights v2", downloads+1, built+1)
}

// TestResolveMemoForgetsFailures: a resolve that failed — the bundle
// would not construct, the download did not hash to the grant's digest —
// leaves nothing behind, so the next grant goes through the whole
// verifying path again.
func TestResolveMemoForgetsFailures(t *testing.T) {
	rig := newMemoRig(t)
	_, good := writeBundle(t, rig.bundleDir, "mlp", "mlp-00000000000000cc", []byte("weights"))

	rig.failBuild = true
	if spec, err := rig.resolve(good); err == nil {
		t.Fatalf("corrupt bundle resolved to %q", spec)
	}
	rig.failBuild = false
	spec, err := rig.resolve(good)
	rig.expect(t, "retry after a failed construction", spec, err, "mlp=weights", 1, 2)

	// A grant whose digest no download can satisfy fails (transiently)
	// after its in-cell retries and does not displace or poison the
	// entry: the good refs still hit, the bad ones still fail.
	bad := good
	bad.Digest = strings.Repeat("0", len(good.Digest))
	if spec, err := rig.resolve(bad); err == nil || !campaign.Transient(err) {
		t.Fatalf("unsatisfiable digest resolved (%q, %v), want a transient failure", spec, err)
	}
	downloads := int(rig.downloads.Load())
	if spec, err := rig.resolve(bad); err == nil {
		t.Fatalf("unsatisfiable digest resolved to %q on the second try", spec)
	}
	if got := int(rig.downloads.Load()); got == downloads {
		t.Fatal("the failed resolve was remembered: its retry fetched nothing")
	}
	downloads, built := int(rig.downloads.Load()), rig.built
	spec, err = rig.resolve(good)
	rig.expect(t, "good refs after a failed grant", spec, err, "mlp=weights", downloads, built)
}
