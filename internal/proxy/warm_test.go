package proxy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// White-box tests for the batch Warm ingestion path and the prefetch
// placement policy (cold-end insert, never-evict, waste accounting).

func warmEntry(class string, n int, reason string) *Artifact {
	return &Artifact{Arch: "x86", Class: class, Data: bytes.Repeat([]byte{'x'}, n), Source: reason}
}

func TestWarmBatchStoresAllReasons(t *testing.T) {
	p := lruProxy(0)
	stored := p.Warm([]*Artifact{
		warmEntry("app/R", 100, ReasonReplica),
		warmEntry("app/H", 100, ReasonHandoff),
		warmEntry("app/P", 100, ReasonPrefetch),
	})
	if stored != 3 {
		t.Fatalf("stored = %d, want 3", stored)
	}
	for _, class := range []string{"app/R", "app/H", "app/P"} {
		if p.Peek("x86", class) == nil {
			t.Errorf("%s not cached", class)
		}
	}
	if got := p.m.Warmed.Load(); got != 3 {
		t.Errorf("warm_entries_total = %d, want 3", got)
	}
	if got := p.m.WarmedBytes.Load(); got != 300 {
		t.Errorf("warm_bytes_total = %d, want 300", got)
	}
}

func TestWarmDisabledCache(t *testing.T) {
	p := New(MapOrigin{}, Config{})
	if n := p.Warm([]*Artifact{warmEntry("app/A", 10, ReasonReplica)}); n != 0 {
		t.Fatalf("stored = %d on disabled cache", n)
	}
}

func TestPrefetchInsertsColdAndNeverEvicts(t *testing.T) {
	p := lruProxy(300)
	// Two resident entries a client actually asked for.
	p.storeMem("app/A", bytes.Repeat([]byte{'a'}, 100))
	p.storeMem("app/B", bytes.Repeat([]byte{'b'}, 100))
	// Prefetch fits in the remaining 100 bytes: inserted at the cold end.
	if n := p.Warm([]*Artifact{warmEntry("app/P1", 100, ReasonPrefetch)}); n != 1 {
		t.Fatalf("fitting prefetch not stored")
	}
	// A second prefetch does not fit: skipped, nothing evicted.
	if n := p.Warm([]*Artifact{warmEntry("app/P2", 100, ReasonPrefetch)}); n != 0 {
		t.Fatalf("over-budget prefetch was stored")
	}
	for _, class := range []string{"app/A", "app/B", "app/P1"} {
		if p.Peek("x86", class) == nil {
			t.Errorf("%s missing after over-budget prefetch", class)
		}
	}
	if got := p.store.m.Skipped.Load(); got != 1 {
		t.Errorf("prefetch_skipped_total = %d, want 1", got)
	}
	// A real store under pressure evicts the unused prefetched entry
	// first (it sits at the cold end) and counts its bytes as waste.
	p.storeMem("app/C", bytes.Repeat([]byte{'c'}, 100))
	if p.Peek("x86", "app/P1") != nil {
		t.Error("unused prefetched entry survived a real store under pressure")
	}
	if got := p.store.m.WasteBytes.Load(); got != 100 {
		t.Errorf("prefetch_waste_bytes_total = %d, want 100", got)
	}
	if got := p.store.m.Evicted.Load(); got != 1 {
		t.Errorf("prefetch_evicted_unused_total = %d, want 1", got)
	}
	if p.store.unused != 0 {
		t.Errorf("prefetchResident = %d, want 0", p.store.unused)
	}
}

func TestPrefetchHitClearsLedgerAndPromotes(t *testing.T) {
	p := lruProxy(300)
	p.Warm([]*Artifact{warmEntry("app/P", 100, ReasonPrefetch)})
	if p.store.unused != 100 {
		t.Fatalf("prefetchResident = %d, want 100", p.store.unused)
	}
	art, fresh, prefetched := p.memGet("app/P")
	if art == nil || !fresh || !prefetched || len(art.Data) != 100 {
		t.Fatalf("memGet = %+v fresh=%v prefetched=%v", art, fresh, prefetched)
	}
	if got := p.store.m.Hits.Load(); got != 1 {
		t.Errorf("prefetch_hits_total = %d, want 1", got)
	}
	if p.store.unused != 0 {
		t.Errorf("prefetchResident = %d after hit, want 0", p.store.unused)
	}
	// Second access is an ordinary hit, and later eviction is not waste.
	if _, _, again := p.memGet("app/P"); again {
		t.Error("second hit still flagged prefetched")
	}
	p.storeMem("app/A", bytes.Repeat([]byte{'a'}, 150))
	p.storeMem("app/B", bytes.Repeat([]byte{'b'}, 150)) // evicts app/P
	if got := p.store.m.WasteBytes.Load(); got != 0 {
		t.Errorf("used prefetch counted as waste: %d bytes", got)
	}
}

func TestPrefetchSkipsAlreadyCached(t *testing.T) {
	p := lruProxy(0)
	p.storeMem("app/A", []byte("resident"))
	if n := p.Warm([]*Artifact{warmEntry("app/A", 100, ReasonPrefetch)}); n != 0 {
		t.Fatal("prefetch overwrote a resident entry")
	}
	if art := p.Peek("x86", "app/A"); art == nil || string(art.Data) != "resident" {
		t.Errorf("resident bytes replaced: %+v", art)
	}
}

// Property: across any interleaving of real stores, hits, and prefetch
// pushes, a prefetch insertion never evicts an entry that is hotter
// than itself. With LRU, "hotter" is "more recently touched" — so the
// invariant is that the set of resident non-prefetched keys (and of
// previously hit prefetched keys) is exactly what it would have been
// had the prefetch pushes never happened.
func TestPrefetchNeverEvictsHotterKeysProperty(t *testing.T) {
	const budget = 1000
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		real := lruProxy(budget)  // sees only the real traffic
		mixed := lruProxy(budget) // sees real traffic + prefetch pushes
		realKeys := map[string]bool{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0: // real store (a client-driven fill)
				class := fmt.Sprintf("app/R%02d", rng.Intn(20))
				size := 50 + rng.Intn(100)
				data := bytes.Repeat([]byte{'r'}, size)
				real.storeMem(class, data)
				mixed.storeMem(class, data)
				realKeys[class] = true
			case 1: // real hit (recency touch)
				class := fmt.Sprintf("app/R%02d", rng.Intn(20))
				real.memGet(class)
				mixed.memGet(class)
			case 2: // speculative push, mixed proxy only
				class := fmt.Sprintf("app/P%02d", rng.Intn(40))
				if realKeys[class] {
					continue
				}
				mixed.Warm([]*Artifact{warmEntry(class, 50+rng.Intn(100), ReasonPrefetch)})
			}
		}
		// Every real key resident in the clean proxy must be resident in
		// the mixed proxy too: prefetch never cost a real key its slot.
		for _, key := range residentClasses(real) {
			found := false
			for _, mk := range residentClasses(mixed) {
				if mk == key {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: real key %q evicted by prefetch traffic", trial, key)
			}
		}
	}
}
