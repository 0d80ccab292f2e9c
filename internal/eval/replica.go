package eval

import (
	"context"
	"fmt"
	"sync/atomic"

	"dvm/internal/proxy"
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
// spread round-robin and a replica failure falls over to the next. It is
// the experiments' unsharded baseline, not a deployment mode: a fleet is
// internal/cluster.
type ReplicaGroup struct {
	replicas []*proxy.Proxy
	next     atomic.Uint64
}

// NewReplicaGroup builds n replicas over the origin, each with its own
// cache and pipeline built by mkConfig (called once per replica).
func NewReplicaGroup(origin proxy.Origin, n int, mkConfig func(i int) proxy.Config) (*ReplicaGroup, error) {
	if n <= 0 {
		return nil, fmt.Errorf("eval: replica group needs at least 1 replica")
	}
	g := &ReplicaGroup{}
	for i := 0; i < n; i++ {
		g.replicas = append(g.replicas, proxy.New(origin, mkConfig(i)))
	}
	return g, nil
}

// Size returns the number of replicas.
func (g *ReplicaGroup) Size() int { return len(g.replicas) }

// Replica returns the i-th replica (diagnostics, per-replica stats).
func (g *ReplicaGroup) Replica(i int) *proxy.Proxy { return g.replicas[i] }

// Request serves a class from the next replica in round-robin order,
// failing over to the remaining replicas on error. The caller's ctx
// bounds the whole failover sweep; once it expires no further replicas
// are tried.
func (g *ReplicaGroup) Request(ctx context.Context, l proxy.Lookup) (proxy.Result, error) {
	start := int(g.next.Add(1)-1) % len(g.replicas)
	var firstErr error
	var firstRes proxy.Result
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

// Stats sums every counter of the replicas' Stats (the breaker snapshot,
// which does not add up, is left zero).
func (g *ReplicaGroup) Stats() proxy.Stats {
	var out proxy.Stats
	for _, p := range g.replicas {
		telemetry.Add(&out, p.Stats())
	}
	return out
}
