package proxy

import (
	"context"
	"fmt"
	"sync/atomic"

	"dvm/internal/telemetry"
)

// ReplicaGroup addresses the centralization concern of §2: "Centralization
// can lead to a bottleneck in performance or result in a single point of
// failure within the network. These problems can be addressed by
// replicated or recoverable server implementations."
//
// The group fronts several independent proxies over the same origin.
// Static service components need no shared mutable state ("they do not
// inherently need to synchronize with clients or require exclusive
// access to shared state"), so replicas are plain copies; requests are
// spread round-robin and a replica failure falls over to the next.
type ReplicaGroup struct {
	replicas []*Proxy
	next     atomic.Uint64
}

// NewReplicaGroup builds n replicas over the origin, each with its own
// cache and pipeline built by mkConfig (called once per replica).
func NewReplicaGroup(origin Origin, n int, mkConfig func(i int) Config) (*ReplicaGroup, error) {
	if n <= 0 {
		return nil, fmt.Errorf("proxy: replica group needs at least 1 replica")
	}
	g := &ReplicaGroup{}
	for i := 0; i < n; i++ {
		g.replicas = append(g.replicas, New(origin, mkConfig(i)))
	}
	return g, nil
}

// Size returns the number of replicas.
func (g *ReplicaGroup) Size() int { return len(g.replicas) }

// Replica returns the i-th replica (diagnostics, per-replica stats).
func (g *ReplicaGroup) Replica(i int) *Proxy { return g.replicas[i] }

// Request serves a class from the next replica in round-robin order,
// failing over to the remaining replicas on error. The caller's ctx
// bounds the whole failover sweep; once it expires no further replicas
// are tried.
func (g *ReplicaGroup) Request(ctx context.Context, l Lookup) (Result, error) {
	start := int(g.next.Add(1)-1) % len(g.replicas)
	var firstErr error
	var firstRes Result
	for i := 0; i < len(g.replicas); i++ {
		if cerr := ctx.Err(); cerr != nil {
			if firstErr == nil {
				firstErr = cerr
			}
			break
		}
		p := g.replicas[(start+i)%len(g.replicas)]
		res, err := p.Request(ctx, l)
		if err == nil {
			return res, nil
		}
		if firstErr == nil {
			firstErr, firstRes = err, res
		}
	}
	return firstRes, firstErr
}

// RequestLatency merges the replicas' request-latency histograms into
// one group-wide snapshot.
func (g *ReplicaGroup) RequestLatency() telemetry.HistSnapshot {
	var s telemetry.HistSnapshot
	for _, p := range g.replicas {
		_ = s.Merge(p.RequestLatency())
	}
	return s
}

// Stats aggregates the replica counters.
func (g *ReplicaGroup) Stats() Stats {
	var out Stats
	for _, p := range g.replicas {
		s := p.Stats()
		out.Requests += s.Requests
		out.CacheHits += s.CacheHits
		out.Coalesced += s.Coalesced
		out.OriginFetches += s.OriginFetches
		out.FetchRetries += s.FetchRetries
		out.FetchErrors += s.FetchErrors
		out.StaleServed += s.StaleServed
		out.PeerFetches += s.PeerFetches
		out.PeerHits += s.PeerHits
		out.OwnerFetches += s.OwnerFetches
		out.Rejections += s.Rejections
		out.Shed += s.Shed
		out.ShedStale += s.ShedStale
		out.CoalescedFailures += s.CoalescedFailures
		out.FlightsAbandoned += s.FlightsAbandoned
		out.BytesIn += s.BytesIn
		out.BytesOut += s.BytesOut
		out.ProxyTime += s.ProxyTime
	}
	return out
}
