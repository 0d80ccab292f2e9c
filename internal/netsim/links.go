package netsim

import (
	"context"
	"net"
	"sync"
)

// LinkFaults is a per-destination fault mesh for the hop: a dialer whose
// connections to each destination host can carry its own FaultSpec while
// traffic to every other host passes through clean. A cluster chaos test
// uses one LinkFaults per node as its peer dialer, so the link from node
// A to peer B can be cut or degraded (asymmetrically — B can still reach
// A) without touching the rest of the mesh. A connection plays its link's
// profile as it is when each request is written, so a cut or a fault set
// later reaches the connections already pooled too.
type LinkFaults struct {
	dial Dialer

	mu    sync.RWMutex
	links map[string]*faultCore
}

// NewLinkFaults builds a mesh view over dial (nil = a net.Dialer). With no
// links configured it is a transparent pass-through.
func NewLinkFaults(dial Dialer) *LinkFaults {
	if dial == nil {
		dial = (&net.Dialer{}).DialContext
	}
	return &LinkFaults{dial: dial, links: make(map[string]*faultCore)}
}

// SetLink installs (or replaces) the fault profile for connections to
// host (e.g. "127.0.0.1:8642"). Replacing a link resets its deterministic
// fault sequence and stats.
func (l *LinkFaults) SetLink(host string, spec FaultSpec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.links[host] = newFaultCore(spec)
}

// ClearLink restores a clean link to host.
func (l *LinkFaults) ClearLink(host string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.links, host)
}

// LinkStats reports the injected-fault counters for the link to host.
func (l *LinkFaults) LinkStats(host string) (FaultStats, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	c, ok := l.links[host]
	if !ok {
		return FaultStats{}, false
	}
	return c.Stats(), true
}

// CutSpec is the fault profile of a fully severed link: every dial is
// refused, and every request on a connection already open is reset. Seed keeps the (deterministic) fault sequence API
// happy; it has no effect at rate 1.
func CutSpec(seed uint64) FaultSpec {
	return FaultSpec{Seed: seed, ErrorRate: 1}
}

// Cut severs the link to host (every request errors) until ClearLink
// or Heal restores it.
func (l *LinkFaults) Cut(host string) { l.SetLink(host, CutSpec(0)) }

// Partition drives network splits across a cluster's fault meshes: one
// LinkFaults per node (the node's peer dialer), one host per node.
// Because each direction is a separate mesh entry, splits can be
// asymmetric — A unable to reach B while B still reaches A — which is
// exactly the case a naive ping-based failure detector gets wrong.
type Partition struct {
	meshes []*LinkFaults
	hosts  []string
}

// NewPartition pairs each node's LinkFaults mesh with its host
// ("127.0.0.1:port"). meshes[i] must be node i's peer dialer.
func NewPartition(meshes []*LinkFaults, hosts []string) *Partition {
	return &Partition{meshes: meshes, hosts: hosts}
}

// Isolate cuts node i off in both directions: nobody reaches i, i
// reaches nobody — a network-level crash while the process stays up.
func (p *Partition) Isolate(i int) {
	for j, m := range p.meshes {
		if j == i {
			continue
		}
		m.Cut(p.hosts[i])
		p.meshes[i].Cut(p.hosts[j])
	}
}

// IsolateInbound cuts only traffic *toward* node i: i still reaches
// everyone (asymmetric partition). i's outbound gossip keeps refuting
// the suspicion its silence would otherwise earn.
func (p *Partition) IsolateInbound(i int) {
	for j, m := range p.meshes {
		if j != i {
			m.Cut(p.hosts[i])
		}
	}
}

// Split severs every link between group A (by node index) and the rest,
// both directions.
func (p *Partition) Split(groupA []int) {
	inA := make(map[int]bool, len(groupA))
	for _, i := range groupA {
		inA[i] = true
	}
	for i := range p.meshes {
		for j := range p.meshes {
			if i != j && inA[i] != inA[j] {
				p.meshes[i].Cut(p.hosts[j])
			}
		}
	}
}

// Heal restores every link in the mesh.
func (p *Partition) Heal() {
	for _, m := range p.meshes {
		for _, h := range p.hosts {
			m.ClearLink(h)
		}
	}
}

// Dial implements the hop's dial function: connections to a host with a
// configured link play its fault profile, the rest pass clean.
func (l *LinkFaults) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	return faultyDial(ctx, l.dial, network, addr, func() *faultCore {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return l.links[addr]
	})
}
