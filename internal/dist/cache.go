package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultCacheEntries is the bundle-cache capacity when
// NewBundleCache is given a non-positive max.
const DefaultCacheEntries = 8

// BundleCache is a worker's on-disk LRU cache of downloaded model
// bundles, keyed by fingerprint. Every insert is digest-verified
// against the lease's BundleRef and written atomically (tmp + rename),
// so a worker killed mid-download leaves no entry and a corrupted
// transfer never becomes one. The cache is what turns "one download
// per cell" into "one download per worker": the first cell of a
// fingerprint fetches, every later cell loads the local file.
type BundleCache struct {
	dir string
	max int

	mu sync.Mutex
	// lru holds the cached fingerprints, least recently used first.
	lru []string
}

// NewBundleCache opens (creating if needed) an on-disk cache at dir
// holding at most max bundles (<= 0 selects DefaultCacheEntries).
// Entries a previous worker process left behind are adopted in sorted
// order; their bytes are digest-verified on first use, not on open.
func NewBundleCache(dir string, max int) (*BundleCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("dist: bundle cache needs a directory")
	}
	if max <= 0 {
		max = DefaultCacheEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: bundle cache dir: %w", err)
	}
	c := &BundleCache{dir: dir, max: max}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+bundleExt))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		c.lru = append(c.lru, strings.TrimSuffix(filepath.Base(p), bundleExt))
	}
	return c, nil
}

// path is the on-disk location of one fingerprint's bundle.
func (c *BundleCache) path(fp string) string {
	return filepath.Join(c.dir, fp+bundleExt)
}

// touchLocked moves fp to the most-recently-used end (appending it if
// absent). Callers hold c.mu.
func (c *BundleCache) touchLocked(fp string) {
	for i, e := range c.lru {
		if e == fp {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	c.lru = append(c.lru, fp)
}

// evictLocked drops least-recently-used entries until the cache fits
// its capacity. Callers hold c.mu.
func (c *BundleCache) evictLocked() {
	for len(c.lru) > c.max {
		victim := c.lru[0]
		c.lru = c.lru[1:]
		os.Remove(c.path(victim))
	}
}

// Get returns the local path of ref's bundle, fetching and caching it
// via fetch on a miss. hit reports whether the bytes were already
// cached (and verified against ref.Digest). A cached file that no
// longer hashes to the ref's digest — corruption, or a stale file from
// an earlier incompatible run — is discarded and refetched rather than
// served. A fetched payload that hashes wrong is rejected with a
// transient error (the retry machinery's business) and never touches
// the cache.
func (c *BundleCache) Get(ref BundleRef, fetch func() ([]byte, error)) (path string, hit bool, err error) {
	if err := validFingerprint(ref.Fingerprint); err != nil {
		return "", false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.path(ref.Fingerprint)
	if data, err := os.ReadFile(p); err == nil {
		if digestOf(data) == ref.Digest {
			c.touchLocked(ref.Fingerprint)
			return p, true, nil
		}
		// Cached bytes no longer match the coordinator's digest: drop
		// the entry and fall through to a fresh fetch.
		os.Remove(p)
		c.dropLocked(ref.Fingerprint)
	}
	data, err := fetch()
	if err != nil {
		return "", false, err
	}
	if got := digestOf(data); got != ref.Digest {
		return "", false, transientError(fmt.Sprintf(
			"dist: bundle %s digest mismatch: got %s, want %s (rejected)",
			ref.Fingerprint, got, ref.Digest))
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", false, fmt.Errorf("dist: cache bundle %s: %w", ref.Fingerprint, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return "", false, fmt.Errorf("dist: cache bundle %s: %w", ref.Fingerprint, err)
	}
	c.touchLocked(ref.Fingerprint)
	c.evictLocked()
	return p, false, nil
}

// dropLocked removes fp from the LRU list (the file is the caller's
// business). Callers hold c.mu.
func (c *BundleCache) dropLocked(fp string) {
	for i, e := range c.lru {
		if e == fp {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			return
		}
	}
}

// digestOf is the cache's content hash: hex SHA-256, matching
// BundleRefFromFile.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
