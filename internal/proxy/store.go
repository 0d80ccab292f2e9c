package proxy

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dvm/internal/attest"
	"dvm/internal/telemetry"
)

// store is the proxy's artifact cache: a byte-budgeted memory LRU in
// front of an optional directory of files ("accesses to classes that
// have been fetched by another DVM client are served from an on-disk
// cache on the proxy", §4.1.2, and a restarted proxy resumes serving
// without re-fetching or re-rewriting, §2). It owns recency, byte
// accounting and the disk files; the proxy only ever sees *Artifact.
//
// Memory: hits refresh recency, replacing a key fixes the accounting,
// and an artifact larger than the whole budget is skipped rather than
// allowed to wipe the cache and still not stay resident.
type store struct {
	budget int           // memory bytes (0 = unlimited)
	ttl    time.Duration // freshness window (0 = forever)
	dir    string        // disk tier ("" = none)

	mu    sync.Mutex
	cache map[string]*entry // key: arch + "\x00" + class
	lru   entry             // ring sentinel: lru.next = most recently used
	bytes int

	m storeMetrics
}

// storeMetrics is the store's metric declaration (telemetry.Declare).
type storeMetrics struct {
	// DiskCorrupt counts disk files discarded because they do not decode
	// to their key's entry or their bytes no longer match their seal.
	DiskCorrupt *telemetry.Counter `metric:"disk_corrupt_total"`
}

// entry is one element of the LRU ring. The links are intrusive — the
// entry is the list node — so a resident artifact costs the collector
// one object beyond the Artifact itself.
type entry struct {
	prev, next *entry
	key        string
	art        *Artifact
	storedAt   time.Time
}

// unlink takes e out of the ring; linkAfter puts it behind at.
func (e *entry) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

func (e *entry) linkAfter(at *entry) {
	e.prev, e.next = at, at.next
	at.next.prev, at.next = e, e
}

func newStore(cfg Config, reg *telemetry.Registry) *store {
	s := &store{
		budget: cfg.CacheBudget, ttl: cfg.CacheTTL, dir: cfg.DiskCacheDir,
		cache: make(map[string]*entry),
	}
	reg.Declare(&s.m)
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	reg.Gauge("cache_bytes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	return s
}

func (s *store) fresh(storedAt time.Time) bool {
	return s.ttl <= 0 || !time.Now().After(storedAt.Add(s.ttl))
}

// get looks the key up in memory; a hit refreshes recency. fresh
// reports whether the entry is within the TTL — a stale one is still
// returned, as the stale-if-error fallback.
func (s *store) get(key string) (art *Artifact, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.cache[key]
	if !ok {
		return nil, false
	}
	ent.unlink()
	ent.linkAfter(&s.lru)
	return ent.art, s.fresh(ent.storedAt)
}

// touch restarts the TTL of an entry just served stale, so a down
// origin is re-probed once per TTL window per key instead of on every
// request (the breaker bounds the damage regardless; this bounds audit
// noise).
func (s *store) touch(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.cache[key]; ok {
		ent.storedAt = time.Now()
	}
}

// put makes art resident and reports whether it was stored; what is
// stored is also written through to disk.
func (s *store) put(art *Artifact) bool {
	if !s.remember(art) {
		return false
	}
	s.save(art)
	return true
}

// remember is the memory half of put: the artifact enters hot and
// evicts from the cold end.
func (s *store) remember(art *Artifact) bool {
	key, size := art.key(), len(art.Data)
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, resident := s.cache[key]
	switch {
	case s.budget > 0 && size > s.budget:
		log.Printf("proxy: cache: entry %q (%d bytes) exceeds cache budget (%d); not cached", art.Class, size, s.budget)
		return false
	case resident:
		s.bytes += size - len(ent.art.Data)
		ent.art, ent.storedAt = art, time.Now()
		ent.unlink()
		ent.linkAfter(&s.lru)
	default:
		ent = &entry{key: key, art: art, storedAt: time.Now()}
		ent.linkAfter(&s.lru)
		s.cache[key] = ent
		s.bytes += size
	}
	for cold := s.lru.prev; s.budget > 0 && s.bytes > s.budget && cold != &s.lru; cold = s.lru.prev {
		cold.unlink()
		delete(s.cache, cold.key)
		s.bytes -= len(cold.art.Data)
	}
	return true
}

// snapshot returns resident artifacts most-recently-used first —
// recency is the hotness signal — stopping once their data exceeds
// maxBytes (0 = unbounded). keep filters (nil = all).
func (s *store) snapshot(maxBytes int, keep func(arch, class string) bool) []*Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Artifact
	total := 0
	for ent := s.lru.next; ent != &s.lru; ent = ent.next {
		art := ent.art
		if keep != nil && !keep(art.Arch, art.Class) {
			continue
		}
		if maxBytes > 0 && total+len(art.Data) > maxBytes && len(out) > 0 {
			break
		}
		out = append(out, art)
		if total += len(art.Data); maxBytes > 0 && total >= maxBytes {
			break
		}
	}
	return out
}

// The disk tier. One file per key, named by a digest of the key so
// arbitrary class names map to safe paths. The file is the artifact
// codec's frame with one entry (artifact.go): bytes, seal and rejection
// flag in one piece, put in place by one rename, so a crash leaves the
// old file or the new one and never bytes apart from what describes
// them.

func (s *store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+".class")
}

// load reads the key from the disk tier. A fresh artifact is promoted
// to memory; a stale one (file older than the TTL) is returned only as
// the stale-if-error fallback, so it is still revalidated. A file that
// does not decode to this key's entry — torn, rotted, or from an older
// format — or whose bytes no longer match their seal (checked without
// the service key: the digest must match) is discarded and counted
// instead of serving bit-rotted bytes under a seal every peer would then
// reject and ledger as divergence.
func (s *store) load(key string) (art *Artifact, fresh bool) {
	if s.dir == "" {
		return nil, false
	}
	path := s.path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	d := OpenFrame(b)
	a, reason, stale := d.Entry(false)
	if err = d.Finish(); err == nil && (reason != "" || stale || a.key() != key ||
		a.Att != nil && a.Att.Digest != attest.Digest(a.Data)) {
		err = errors.New("not this key's entry, or bytes that do not match their seal")
	}
	if err != nil {
		s.m.DiskCorrupt.Inc()
		log.Printf("proxy: disk cache: %s: %v; discarded", filepath.Base(path), err)
		os.Remove(path)
		return nil, false
	}
	a.Source = SourceDisk
	if fi, err := os.Stat(path); err == nil && !s.fresh(fi.ModTime()) {
		return &a, false
	}
	s.remember(&a)
	return &a, true
}

// save writes art through to the disk tier (best effort: a full or
// read-only disk degrades to memory-only caching rather than failing
// the request).
func (s *store) save(art *Artifact) {
	if s.dir == "" || os.MkdirAll(s.dir, 0o755) != nil {
		return
	}
	head := art.AppendEntry(AppendFrameHeader(make([]byte, 0, 128)), "", false)
	writeAtomic(s.dir, s.path(art.key()), head, art.Data)
}

// writeAtomic stages runs in a unique temp file and renames it into
// place, so concurrent writers of the same key cannot interleave
// partial writes; readers always see a complete file.
func writeAtomic(dir, path string, runs ...[]byte) {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	for _, r := range runs {
		if _, err = tmp.Write(r); err != nil {
			break
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
}
