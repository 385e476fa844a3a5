package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"tilesim/internal/cmp"
)

// Key derives the content address of a configuration: the SHA-256 of
// the simulator version string (cmp.SimVersion) and the canonical
// config encoding (cmp.RunConfig.Canonical). Any change to a
// simulation-relevant field — or a SimVersion bump — yields a new key;
// equivalent spellings of one configuration share a key.
// Configurations driven by a custom Generator are not addressable and
// return Canonical's error.
func Key(cfg cmp.RunConfig) (string, error) {
	canon, err := cfg.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(cmp.SimVersion + "\n" + canon))
	return hex.EncodeToString(sum[:]), nil
}

// CacheStats counts cache traffic. Hits includes DiskHits.
type CacheStats struct {
	Hits     uint64
	DiskHits uint64
	Misses   uint64
}

// Cache memoizes simulation results by content-addressed key. Every
// cache holds an in-process map; a disk cache additionally persists
// each entry as one JSON file under its directory, so repeated process
// invocations skip already-simulated configurations. All methods are
// safe for concurrent use, and the write-to-temp-then-rename protocol
// keeps the directory safe for concurrent writers (including separate
// processes). Corrupt, truncated or stale-version entries are
// discarded and re-simulated, never fatal.
type Cache struct {
	dir string

	mu    sync.Mutex
	mem   map[string]cmp.Result
	stats CacheStats

	// healHook, when non-nil, runs after a corrupt entry is detected and
	// before the removal decision re-reads it. Tests use it to interleave
	// a concurrent process's heal or atomic rewrite.
	healHook func()
}

// NewMemCache returns an in-process-only cache.
func NewMemCache() *Cache { return &Cache{mem: make(map[string]cmp.Result)} }

// NewDiskCache returns a cache backed by dir, creating it if needed.
func NewDiskCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	return &Cache{dir: dir, mem: make(map[string]cmp.Result)}, nil
}

// entry is the on-disk JSON envelope. Version and Key are stored
// redundantly so a reader can reject entries written by a different
// simulator version or damaged by partial writes and renames.
type entry struct {
	Version string
	Key     string
	Result  cmp.Result
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Get returns the memoized result for key, consulting memory first and
// then (for disk caches) the backing directory. A disk hit is promoted
// into memory. Undecodable or mismatched disk entries are deleted
// best-effort and reported as misses.
func (c *Cache) Get(key string) (cmp.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.mem[key]; ok {
		c.stats.Hits++
		return res, true
	}
	if c.dir != "" {
		if res, ok := c.readDisk(key); ok {
			c.mem[key] = res
			c.stats.Hits++
			c.stats.DiskHits++
			return res, true
		}
	}
	c.stats.Misses++
	return cmp.Result{}, false
}

func (c *Cache) readDisk(key string) (cmp.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return cmp.Result{}, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != cmp.SimVersion || e.Key != key {
		// Corrupt or stale entry: drop it so the directory self-heals.
		c.removeCorrupt(key, data)
		return cmp.Result{}, false
	}
	return e.Result, true
}

// removeCorrupt heals a corrupt or stale-version entry. The directory
// may be shared with concurrent processes, so removal is conditional:
// between our read and now, another process may have healed the entry
// already (fs.ErrNotExist — success, nothing to do) or atomically
// renamed a fresh valid entry into place (the bytes changed — deleting
// it out from under that writer would throw away a good result). Only
// an entry still holding the exact corrupt bytes we saw is removed.
func (c *Cache) removeCorrupt(key string, corrupt []byte) {
	if c.healHook != nil {
		c.healHook()
	}
	path := c.path(key)
	cur, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return // another process already healed it
	}
	if err != nil || !bytes.Equal(cur, corrupt) {
		return // concurrently rewritten: the new entry may be valid
	}
	os.Remove(path)
}

// Put memoizes a result. Disk caches also persist it; a persistence
// failure (full disk, permissions) degrades to memory-only silently —
// the cache is an accelerator, never a correctness dependency.
func (c *Cache) Put(key string, r cmp.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem[key] = r
	if c.dir == "" {
		return
	}
	// Temp file + rename keeps concurrent writers (and readers) from
	// ever observing a partial entry.
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	bw := bufio.NewWriter(tmp)
	err = writeEntry(bw, key, r)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

// writeEntry writes the bytes json.Marshal writes for r's entry under
// key, streaming the result through writeResult.
func writeEntry(w io.Writer, key string, r cmp.Result) error {
	version, _ := json.Marshal(cmp.SimVersion) // strings always marshal
	k, _ := json.Marshal(key)
	if _, err := fmt.Fprintf(w, `{"Version":%s,"Key":%s,"Result":`, version, k); err != nil {
		return err
	}
	if err := writeResult(w, r); err != nil {
		return err
	}
	_, err := io.WriteString(w, "}")
	return err
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
