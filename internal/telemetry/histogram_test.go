package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile mirrors Quantile's rank definition over raw samples.
func exactQuantile(sorted []time.Duration, p float64) time.Duration {
	rank := int(p * float64(len(sorted)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// bucketOf returns the index of the bound bucket holding d.
func bucketOf(bounds []time.Duration, d time.Duration) int {
	return sort.Search(len(bounds), func(i int) bool { return d <= bounds[i] })
}

// TestHistogramMergeQuantileBounded is the merge property test: for
// random sample sets split across two histograms, every quantile of the
// merged snapshot must land in the same bucket as the exact quantile of
// the combined samples — the error is bounded by one bucket width.
func TestHistogramMergeQuantileBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := defaultLatencyBounds
	for trial := 0; trial < 50; trial++ {
		a, b := NewHistogram(nil), NewHistogram(nil)
		var all []time.Duration
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			// Log-uniform over ~50µs..40s so every bucket (including
			// overflow) gets exercised.
			d := time.Duration(float64(50*time.Microsecond) * pow(1.035, float64(rng.Intn(400))))
			all = append(all, d)
			if rng.Intn(2) == 0 {
				a.Observe(d)
			} else {
				b.Observe(d)
			}
		}
		merged := a.Snapshot()
		if err := merged.Merge(b.Snapshot()); err != nil {
			t.Fatalf("merge: %v", err)
		}
		if got := merged.Count(); got != int64(n) {
			t.Fatalf("merged count = %d, want %d", got, n)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
			got := merged.Quantile(p)
			exact := exactQuantile(all, p)
			gi, ei := bucketOf(bounds, got), bucketOf(bounds, exact)
			if ei >= len(bounds) {
				// Overflow observation: Quantile clamps to the last bound.
				if got != bounds[len(bounds)-1] {
					t.Fatalf("trial %d p=%v: overflow quantile = %v, want clamp to %v", trial, p, got, bounds[len(bounds)-1])
				}
				continue
			}
			if gi != ei {
				t.Fatalf("trial %d p=%v: quantile %v (bucket %d) not in exact bucket %d (exact %v)",
					trial, p, got, gi, ei, exact)
			}
		}
	}
}

func pow(base, exp float64) float64 {
	out := 1.0
	for exp >= 1 {
		out *= base
		exp--
	}
	return out
}

func TestHistogramMergeRejectsMismatchedBounds(t *testing.T) {
	a := NewHistogram(nil).Snapshot()
	b := NewHistogram([]time.Duration{time.Second}).Snapshot()
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched bounds succeeded")
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	var s HistSnapshot
	if err := s.Merge(h.Snapshot()); err != nil {
		t.Fatalf("merge into empty: %v", err)
	}
	if s.Count() != 2 || s.Sum != 4*time.Millisecond {
		t.Fatalf("merged = count %d sum %v", s.Count(), s.Sum)
	}
}

// TestHistogramConcurrentObserveSnapshot runs writers against a
// snapshotting reader under -race: Observe must stay lock-free-safe and
// the final count exact.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	h := NewHistogram(nil)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Count()
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Snapshot().Count() != 0 {
		t.Fatal("nil histogram counted")
	}
}

func TestQuantileEmptyAndMean(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot not zero")
	}
	h := NewHistogram(nil)
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	if got := h.Snapshot().Mean(); got != 3*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}
