package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// defaultLatencyBounds are the shared fixed bucket upper bounds for
// request-latency histograms: roughly exponential from 100µs to 30s.
// Every latency histogram in the repo uses them unless a caller has a
// strong reason not to, so snapshots from any two services or cluster
// nodes merge bucket-wise.
var defaultLatencyBounds = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// Histogram is a fixed-bucket latency histogram built for hot request
// paths: Observe is lock-free (a binary search plus two atomic adds),
// Snapshot is consistent enough for monitoring (each bucket read
// atomically), and two snapshots with the same bounds merge by
// addition — the property that lets a cluster aggregate per-node
// latency without shipping raw samples. Safe on a nil receiver.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64  // len(bounds)+1
	sum    atomic.Int64    // nanoseconds
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (nil = defaultLatencyBounds).
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = defaultLatencyBounds
	}
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// bucketFor returns the index of the bucket recording d.
func (h *Histogram) bucketFor(d time.Duration) int {
	return sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
}

// Observe records one duration. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[h.bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]time.Duration(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is an immutable histogram snapshot: per-bucket counts
// under the shared bounds (the last count is the +Inf overflow bucket)
// plus the running sum.
type HistSnapshot struct {
	Bounds []time.Duration
	Counts []int64 // len(Bounds)+1; Counts[len(Bounds)] overflows the last bound
	Sum    time.Duration
}

// Count returns the total number of observations.
func (s HistSnapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the average observation (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return s.Sum / time.Duration(n)
}

// Merge adds another snapshot's buckets into this one. The two must
// share bounds — the invariant that makes cluster-wide aggregation a
// bucket-wise sum.
func (s *HistSnapshot) Merge(o HistSnapshot) error {
	if len(o.Counts) == 0 {
		return nil
	}
	if len(s.Counts) == 0 {
		s.Bounds = append([]time.Duration(nil), o.Bounds...)
		s.Counts = append([]int64(nil), o.Counts...)
		s.Sum = o.Sum
		return nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("telemetry: merge: %d vs %d buckets", len(s.Bounds), len(o.Bounds))
	}
	for i, b := range s.Bounds {
		if b != o.Bounds[i] {
			return fmt.Errorf("telemetry: merge: bound %d differs (%s vs %s)", i, b, o.Bounds[i])
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
	return nil
}

// Quantile returns the upper bound of the bucket holding the p-quantile
// observation (0 ≤ p ≤ 1). The answer is conservative: the true value
// lies within the returned bucket, so the error is bounded by that
// bucket's width. Observations past the last bound report the last
// bound. Returns 0 when empty.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	n := s.Count()
	if n == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
