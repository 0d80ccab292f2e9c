package bytecode

import (
	"fmt"
	"sync"
	"testing"

	"dvm/internal/classfile"
)

func TestDescriptorCacheHitsAndMisses(t *testing.T) {
	ResetDescriptorCache()
	defer ResetDescriptorCache()

	if _, err := ParseMethodType("(ILjava/lang/String;)V"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseType("[[Ljava/util/Vector;"); err != nil {
		t.Fatal(err)
	}
	hits, misses := DescriptorCacheStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("after cold parses: hits=%d misses=%d, want 0/2", hits, misses)
	}

	for i := 0; i < 5; i++ {
		mt, err := ParseMethodType("(ILjava/lang/String;)V")
		if err != nil {
			t.Fatal(err)
		}
		if got := mt.String(); got != "(ILjava/lang/String;)V" {
			t.Fatalf("cached method type renders %q", got)
		}
		ty, err := ParseType("[[Ljava/util/Vector;")
		if err != nil {
			t.Fatal(err)
		}
		if got := ty.String(); got != "[[Ljava/util/Vector;" {
			t.Fatalf("cached type renders %q", got)
		}
	}
	hits, misses = DescriptorCacheStats()
	if hits != 10 || misses != 2 {
		t.Fatalf("after warm parses: hits=%d misses=%d, want 10/2", hits, misses)
	}

	// Failed parses are not cached and never return stale successes.
	if _, err := ParseMethodType("(I"); err == nil {
		t.Fatal("malformed descriptor parsed")
	}
	if _, err := ParseMethodType("(I"); err == nil {
		t.Fatal("malformed descriptor parsed on second attempt")
	}
}

func TestDescriptorCacheBounded(t *testing.T) {
	ResetDescriptorCache()
	defer ResetDescriptorCache()

	// Insert far more one-shot descriptors than the limit; the
	// two-generation scheme bounds resident entries at 2x the limit.
	for i := 0; i < 3*descCacheLimit; i++ {
		if _, err := ParseMethodType(fmt.Sprintf("(I)L%06d;", i)); err != nil {
			t.Fatal(err)
		}
	}
	methodCache.mu.RLock()
	resident := len(methodCache.cur) + len(methodCache.prev)
	methodCache.mu.RUnlock()
	if resident > 2*descCacheLimit {
		t.Fatalf("cache holds %d entries, want <= %d", resident, 2*descCacheLimit)
	}

	// A hot entry parsed after the churn still round-trips.
	mt, err := ParseMethodType("(DD)D")
	if err != nil {
		t.Fatal(err)
	}
	if mt.String() != "(DD)D" {
		t.Fatalf("post-churn parse renders %q", mt.String())
	}
}

func TestDescriptorCacheConcurrent(t *testing.T) {
	ResetDescriptorCache()
	defer ResetDescriptorCache()

	descs := []string{
		"(ILjava/lang/String;)V", "()V", "(J)J", "([B)I",
		"(Ljava/lang/Object;Ljava/lang/Object;)Z", "([[D)[[D",
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d := descs[(seed+i)%len(descs)]
				mt, err := ParseMethodType(d)
				if err != nil {
					t.Errorf("%s: %v", d, err)
					return
				}
				if mt.String() != d {
					t.Errorf("%s renders %q", d, mt.String())
					return
				}
				// Churn to force generation rotations under load.
				if i%50 == 0 {
					_, _ = ParseMethodType(fmt.Sprintf("(I)L%d_%d;", seed, i))
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkParseMethodTypeCached measures the warm resolve path: the
// same descriptor strings the verifier sees on every invoke.
func BenchmarkParseMethodTypeCached(b *testing.B) {
	ResetDescriptorCache()
	defer ResetDescriptorCache()
	descs := []string{
		"(ILjava/lang/String;)V", "()V", "(J)J",
		"(Ljava/lang/Object;Ljava/lang/Object;)Z",
	}
	for _, d := range descs {
		if _, err := ParseMethodType(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseMethodType(descs[i%len(descs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseMethodTypeCold measures the uncached parser for
// comparison (the cost every resolve paid before memoization).
func BenchmarkParseMethodTypeCold(b *testing.B) {
	descs := []string{
		"(ILjava/lang/String;)V", "()V", "(J)J",
		"(Ljava/lang/Object;Ljava/lang/Object;)Z",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseMethodTypeUncached(descs[i%len(descs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStackEffectRepeatVisitIsFree: resolving a member reference and
// asking for its stack effect a second time reads both back from the
// pool — no allocation, and no lookup in the shared descriptor cache.
func TestStackEffectRepeatVisitIsFree(t *testing.T) {
	pool := classfile.NewConstPool()
	call := Inst{Op: Invokevirtual, Index: pool.AddMethodref("java/util/Hashtable", "put",
		"(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;")}
	load := Inst{Op: Getstatic, Index: pool.AddFieldref("demo/Main", "total", "J")}
	visit := func() {
		if ref, err := pool.Ref(call.Index); err != nil || ref.Name != "put" {
			t.Fatalf("Ref = %v, %v", ref, err)
		}
		if pop, push, err := StackEffect(call, pool); err != nil || pop != 3 || push != 1 {
			t.Fatalf("invokevirtual put: pops %d pushes %d (%v), want 3 and 1", pop, push, err)
		}
		if pop, push, err := StackEffect(load, pool); err != nil || pop != 0 || push != 2 {
			t.Fatalf("getstatic J: pops %d pushes %d (%v), want 0 and 2", pop, push, err)
		}
		if mt, err := RefMethodType(pool, call.Index); err != nil || len(mt.Params) != 2 {
			t.Fatalf("RefMethodType = %v, %v", mt, err)
		}
	}
	visit()
	h0, m0 := DescriptorCacheStats()
	if n := testing.AllocsPerRun(100, visit); n != 0 {
		t.Errorf("a repeat visit allocates %.0f times, want 0", n)
	}
	if h1, m1 := DescriptorCacheStats(); h1 != h0 || m1 != m0 {
		t.Errorf("repeat visits made %d lookups in the shared descriptor cache, want 0", h1-h0+m1-m0)
	}
}
