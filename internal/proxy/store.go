package proxy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
// accounting, the prefetch placement rule and its waste ledger, and the
// disk sidecar; the proxy only ever sees *Artifact.
//
// Memory: hits refresh recency, replacing a key fixes the accounting,
// and an artifact larger than the whole budget is skipped rather than
// allowed to wipe the cache and still not stay resident.
type store struct {
	budget int           // memory bytes (0 = unlimited)
	ttl    time.Duration // freshness window (0 = forever)
	dir    string        // disk tier ("" = none)

	mu     sync.Mutex
	cache  map[string]*entry // key: arch + "\x00" + class
	lru    entry             // ring sentinel: lru.next = most recently used
	bytes  int
	unused int // bytes of prefetched entries nobody has hit yet

	// The prefetch ledger. Waste is explicit: prefetched bytes evicted
	// or overwritten before first use are reported, not hidden.
	cInserted, cHits, cSkipped, cWasteBytes, cEvicted *telemetry.Counter
	// cDiskCorrupt counts disk entries discarded because their bytes no
	// longer match their seal.
	cDiskCorrupt *telemetry.Counter
}

// entry is one element of the LRU ring. The links are intrusive — the
// entry is the list node — so a resident artifact costs the collector
// one object beyond the Artifact itself. prefetched marks a speculative
// entry that has not been hit yet: the flag clears on first use, and an
// entry evicted or overwritten with it still set is prefetch waste.
type entry struct {
	prev, next *entry
	key        string
	art        *Artifact
	storedAt   time.Time
	prefetched bool
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

		cInserted:    reg.Counter("prefetch_inserted_total"),
		cHits:        reg.Counter("prefetch_hits_total"),
		cSkipped:     reg.Counter("prefetch_skipped_total"),
		cWasteBytes:  reg.Counter("prefetch_waste_bytes_total"),
		cEvicted:     reg.Counter("prefetch_evicted_unused_total"),
		cDiskCorrupt: reg.Counter("disk_corrupt_total"),
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	gauge := func(name string, v *int) {
		reg.Gauge(name, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(*v)
		})
	}
	gauge("cache_bytes", &s.bytes)
	gauge("prefetch_resident_unused_bytes", &s.unused)
	return s
}

func (s *store) fresh(storedAt time.Time) bool {
	return s.ttl <= 0 || !time.Now().After(storedAt.Add(s.ttl))
}

// get looks the key up in memory; a hit refreshes recency. fresh
// reports whether the entry is within the TTL — a stale one is still
// returned, as the stale-if-error fallback. prefetched reports the
// first use of a speculatively pushed entry: the prefetch paid off, and
// the flag clears so a later eviction is not miscounted as waste.
func (s *store) get(key string) (art *Artifact, fresh, prefetched bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.cache[key]
	if !ok {
		return nil, false, false
	}
	ent.unlink()
	ent.linkAfter(&s.lru)
	if ent.prefetched {
		ent.prefetched, prefetched = false, true
		s.unused -= len(ent.art.Data)
		s.cHits.Inc()
	}
	return ent.art, s.fresh(ent.storedAt), prefetched
}

// peek returns the fresh resident artifact without touching recency,
// the prefetch ledger or any counter — the read used to assemble a
// prefetch piggyback or find an AOT base without distorting the hotness
// signal. Stale entries are not returned: pushing bytes due for
// revalidation would spread staleness to peers.
func (s *store) peek(key string) *Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.cache[key]; ok && s.fresh(ent.storedAt) {
		return ent.art
	}
	return nil
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
// stored hot is also written through to disk.
func (s *store) put(art *Artifact) bool {
	if !s.remember(art) {
		return false
	}
	if art.Source != ReasonPrefetch {
		s.save(art)
	}
	return true
}

// remember is the memory half of put. A prefetched artifact is a guess:
// it enters at the cold end, is refused rather than allowed to evict
// anything (whatever is resident was asked for, so it is hotter by
// definition) or overwrite a resident key, and does not deserve durable
// bytes. Everything else enters hot and evicts from the cold end.
func (s *store) remember(art *Artifact) bool {
	key, size := art.key(), len(art.Data)
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, resident := s.cache[key]
	switch {
	case art.Source == ReasonPrefetch:
		if resident || (s.budget > 0 && s.bytes+size > s.budget) {
			s.cSkipped.Inc()
			return false
		}
		ent = &entry{key: key, art: art, storedAt: time.Now(), prefetched: true}
		ent.linkAfter(s.lru.prev) // the cold end
		s.cache[key] = ent
		s.bytes += size
		s.unused += size
		s.cInserted.Inc()
		return true
	case s.budget > 0 && size > s.budget:
		log.Printf("proxy: cache: entry %q (%d bytes) exceeds cache budget (%d); not cached", art.Class, size, s.budget)
		return false
	case resident:
		s.wasted(ent) // overwritten before first use, e.g. by a TTL refetch
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
		s.wasted(cold)
		cold.unlink()
		delete(s.cache, cold.key)
		s.bytes -= len(cold.art.Data)
	}
	return true
}

// wasted settles the ledger for a speculative entry leaving the cache
// (or being overwritten) before its first use. Caller holds s.mu.
func (s *store) wasted(ent *entry) {
	if !ent.prefetched {
		return
	}
	ent.prefetched = false
	s.unused -= len(ent.art.Data)
	s.cWasteBytes.Add(int64(len(ent.art.Data)))
	s.cEvicted.Inc()
}

func (s *store) ledger() PrefetchLedger {
	s.mu.Lock()
	resident := int64(s.unused)
	s.mu.Unlock()
	return PrefetchLedger{s.cInserted.Load(), s.cHits.Load(), s.cSkipped.Load(), s.cWasteBytes.Load(), resident}
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
// arbitrary class names map to safe paths; a ".meta" sidecar carries
// what the bytes alone cannot say.

// diskMeta is the sidecar: the seal and the rejection flag survive a
// restart with the bytes they describe.
type diskMeta struct {
	Att      *attest.Attestation `json:"att,omitempty"`
	Rejected bool                `json:"rejected,omitempty"`
}

func (s *store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+".class")
}

// load reads the key from the disk tier. A fresh artifact is promoted
// to memory; a stale one (file older than the TTL) is returned only as
// the stale-if-error fallback, so it is still revalidated. The seal is
// re-checked against the bytes without the service key — the key names
// and the digest must match — and a mismatch is discarded and counted
// instead of serving bit-rotted bytes under a seal every peer would
// then reject and ledger as divergence.
func (s *store) load(key string) (art *Artifact, fresh bool) {
	if s.dir == "" {
		return nil, false
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	arch, class := splitKey(key)
	art = &Artifact{Arch: arch, Class: class, Data: data, Source: SourceDisk}
	if b, err := os.ReadFile(path + ".meta"); err == nil {
		var m diskMeta
		if json.Unmarshal(b, &m) == nil { // undecodable = unattested; peers re-verify
			art.Att, art.Rejected = m.Att, m.Rejected
		}
	}
	if a := art.Att; a != nil && (a.Arch != arch || a.Class != class || a.Digest != attest.Digest(data)) {
		s.cDiskCorrupt.Inc()
		log.Printf("proxy: disk cache: %s/%s does not match its seal; discarded", arch, class)
		os.Remove(path)
		os.Remove(path + ".meta")
		return nil, false
	}
	if fi, err := os.Stat(path); err == nil && !s.fresh(fi.ModTime()) {
		return art, false
	}
	s.remember(art)
	return art, true
}

// save writes art through to the disk tier (best effort: a full or
// read-only disk degrades to memory-only caching rather than failing
// the request). The sidecar is written after the data file: a crash
// between the two loses the sidecar, never pairs one with bytes it does
// not cover.
func (s *store) save(art *Artifact) {
	if s.dir == "" || os.MkdirAll(s.dir, 0o755) != nil {
		return
	}
	path := s.path(art.key())
	if !writeAtomic(s.dir, path, art.Data) {
		return
	}
	if art.Att == nil && !art.Rejected {
		os.Remove(path + ".meta")
	} else if b, err := json.Marshal(diskMeta{art.Att, art.Rejected}); err == nil {
		writeAtomic(s.dir, path+".meta", b)
	}
}

// writeAtomic stages data in a unique temp file and renames it into
// place, so concurrent writers of the same key cannot interleave
// partial writes; readers always see a complete file. Reports success.
func writeAtomic(dir, path string, data []byte) bool {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return false
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

// splitKey splits an arch\x00class cache key into its parts.
func splitKey(key string) (arch, class string) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}
