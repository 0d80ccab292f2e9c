package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// counters is the fleet-wide sum of the public counters the by-construction
// mix is asserted from.
type counters struct {
	requests, hits, coalesced, originFetches, peerHits, bytesOut int64
	peerErrors, replicasPushed, attestVariants, attestDegraded   int64
}

func (b *bench) counters() counters {
	var c counters
	for _, n := range b.f.lc.Nodes {
		s := n.Proxy().Stats()
		c.requests += s.Requests
		c.hits += s.CacheHits
		c.coalesced += s.Coalesced
		c.originFetches += s.OriginFetches
		c.peerHits += s.PeerHits
		c.bytesOut += s.BytesOut
		c.peerErrors += n.PeerErrors()
		c.replicasPushed += n.ReplicasPushed()
		cv := n.Proxy().Telemetry().CounterValues()
		c.attestVariants += cv["attest_variants_total"]
		c.attestDegraded += cv["attest_degraded_total"]
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		requests: a.requests - b.requests, hits: a.hits - b.hits, coalesced: a.coalesced - b.coalesced,
		originFetches: a.originFetches - b.originFetches,
		peerHits:      a.peerHits - b.peerHits, bytesOut: a.bytesOut - b.bytesOut,
		peerErrors: a.peerErrors - b.peerErrors, replicasPushed: a.replicasPushed - b.replicasPushed,
		attestVariants: a.attestVariants - b.attestVariants, attestDegraded: a.attestDegraded - b.attestDegraded,
	}
}

// checkMix asserts that the loads a fleet served between two counter
// snapshots had the mix the workload promises by construction.
func checkMix(def workloadDef, d counters, loads int64) error {
	if d.coalesced != 0 {
		return fmt.Errorf("%d requests coalesced: clients convoyed", d.coalesced)
	}
	if d.peerErrors != 0 || d.attestDegraded != 0 {
		return fmt.Errorf("peer_errors=%d attest_degraded=%d, want 0", d.peerErrors, d.attestDegraded)
	}
	switch def.name {
	case "hit_1n":
		if d.requests != loads || d.hits != loads || d.originFetches != 0 {
			return fmt.Errorf("hit_1n: %d loads, %d requests, %d hits, %d origin fetches", loads, d.requests, d.hits, d.originFetches)
		}
	case "miss_1n":
		if d.requests != loads || d.originFetches != loads || d.hits != 0 {
			return fmt.Errorf("miss_1n: %d loads, %d requests, %d origin fetches, %d hits", loads, d.requests, d.originFetches, d.hits)
		}
	case "peer_hit_3n":
		if d.peerHits != loads || d.hits != loads || d.originFetches != 0 {
			return fmt.Errorf("peer_hit_3n: %d loads, %d peer fills, %d owner hits, %d origin fetches", loads, d.peerHits, d.hits, d.originFetches)
		}
	case "cold_attest_3n":
		if d.peerHits != loads || d.originFetches != loads || d.attestVariants != loads || d.hits != 0 {
			return fmt.Errorf("cold_attest_3n: %d loads, %d peer fills, %d origin fetches, %d variant votes, %d hits", loads, d.peerHits, d.originFetches, d.attestVariants, d.hits)
		}
	}
	return nil
}

// endToEnd measures the rounds with tracing off and returns the
// end-to-end metrics (all but setup_s), the rounds they were read off for
// the info line, and any breach of the promised mix.
func (b *bench) endToEnd(nRounds int, loadDur time.Duration) (m map[string]metric, rs []roundResult, breach error) {
	before, ops0 := b.counters(), b.classLoads.Load()
	rs = make([]roundResult, nRounds)
	for i := range rs {
		rs[i] = b.measureRound(loadDur)
		r := rs[i]
		fmt.Fprintf(os.Stderr, "bench: round %d: %d loads p50=%.1fus p99=%.1fus (%d beyond) %.0f/s cpu=%.1fus alloc=%.2fKB; calib=%.1fms\n",
			i, r.Loads, r.P50us, r.P99us, r.BeyondP99, r.Goodput, r.CPUus, r.AllocKB, r.CalibMs)
	}
	breach = checkMix(b.f.def, b.counters().minus(before), b.classLoads.Load()-ops0)
	top := func(lower bool, f func(roundResult) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return best(v, lower)
	}
	// Bytes allocated per load is a count the host cannot disturb: it is
	// taken over all rounds together.
	var allocKB, loads float64
	for _, r := range rs {
		allocKB += r.AllocKB * float64(r.Loads)
		loads += float64(r.Loads)
	}
	return map[string]metric{
		"load_p50_us":         {top(true, func(r roundResult) float64 { return r.P50us }), "us"},
		"load_p99_us":         {top(true, func(r roundResult) float64 { return r.P99us }), "us"},
		"goodput_loads_per_s": {top(false, func(r roundResult) float64 { return r.Goodput }), "1/s"},
		"cpu_us_per_load":     {top(true, func(r roundResult) float64 { return r.CPUus }), "us"},
		"alloc_kb_per_load":   {allocKB / max(loads, 1), "KB"},
	}, rs, breach
}

// finish turns a bench's op counts and a run's metrics into the result
// line, reporting the first failure and any breach on standard error.
func (b *bench) finish(m map[string]metric, rs []roundResult, breach error) result {
	if msg := b.firstFail.Load(); msg != nil {
		fmt.Fprintf(os.Stderr, "bench: first failure: %s\n", *msg)
	}
	if breach != nil {
		fmt.Fprintf(os.Stderr, "bench: breach: %v\n", breach)
	}
	return result{
		Correct:   b.failed.Load() == 0 && breach == nil,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   m,
		rounds:    rs,
	}
}

// runEndToEnd is the -trace 0 mode: set up once, timed from before the
// inputs are generated to just before the first timed load, then measure
// the rounds.
func runEndToEnd(def workloadDef, seed int64, dur time.Duration) (result, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := setUp(def, seed)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	setup := time.Since(t0)
	fmt.Fprintf(os.Stderr, "bench: set-up: %.3fs\n", setup.Seconds())
	m, rs, breach := b.endToEnd(rounds, dur/rounds)
	m["setup_s"] = metric{setup.Seconds(), "s"}
	return b.finish(m, rs, breach), nil
}
