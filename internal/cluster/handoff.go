package cluster

// Replication and cache handoff: the warm paths that keep an ownership
// change from turning into a cold-start storm.
//
// Replication (continuous): every artifact this node produces itself
// ends up, asynchronously and best-effort, on the key's other ring owners
// (Replication-1 successors), in their caches via proxy.Warm, so when a
// primary dies its successor already holds the bytes — the remap
// degrades to a warm replica hit instead of an origin fetch plus a
// pipeline run. A quorum-2 voter that agreed already holds them: it kept
// its own output (attest.go). Seal pushes to the owners that did not. The
// push queue is a small bounded channel drained by one worker, each push
// under the peer's breaker and on the node's lifetime: the transform path
// never blocks on replication, under a flood pushes are dropped (counted)
// rather than queued without bound, and neither a dead owner nor Close
// waits out a peer timeout per queued push.
//
// Handoff (pull, on membership change): when the ring changes under a
// node — it just joined, or a death promoted it to primary for keys it
// never served — it asks each live peer for the cached entries it now
// owns. The *server* filters: it walks its own cache hottest-first
// (LRU order) and returns entries whose current primary is the
// requester, bounded by maxBytes, and sheds the request outright when
// its admission control reports pressure — warming a newcomer must
// never out-compete serving clients. Draining inverts the direction:
// the leaver pushes its cache to each key's new owners before its HTTP
// server goes away (gossip.go Drain).

import (
	"bytes"
	"context"
	"slices"
	"sort"
	"time"

	"dvm/internal/attest"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// handoffMaxBytes bounds one handoff transfer: enough for the hot tail,
// far from a full cache copy. handoffTimeout bounds one pull.
const (
	handoffMaxBytes = 8 << 20
	handoffTimeout  = 5 * time.Second
)

// replQueueLen is the replication push queue bound. Pushes beyond it
// are dropped (and counted): replication is an optimization, and a
// backlog that survives 256 entries means the successor is slow or
// gone — exactly when queuing more would hurt.
const replQueueLen = 256

// replication is one queued push: the entry with the attestation Seal
// produced (the proxy sets art.Att later), and the owners owed a copy.
type replication struct {
	entry BatchEntry
	to    []string
}

// replicate queues art for the key's other live ring owners that did not
// keep it as voters. Runs on the flight goroutine — must never block.
func (n *Node) replicate(art *proxy.Artifact, att *attest.Attestation, kept []string) {
	if n.cfg.Replication <= 1 {
		return
	}
	to := slices.DeleteFunc(n.currentRing().Owners(KeyFor(art.Arch, art.Class), n.cfg.Replication), func(o string) bool {
		return o == n.cfg.Self || slices.Contains(kept, o) || n.mship.State(o) != stateAlive
	})
	if len(to) == 0 {
		return
	}
	e := toWire(art, proxy.ReasonReplica)
	e.Data, e.Att = bytes.Clone(art.Data), att // the flight may recycle art.Data
	select {
	case n.replCh <- replication{e, to}:
	default:
		n.m.ReplicaDrops.Inc()
	}
}

// replWorker drains the push queue until Close.
func (n *Node) replWorker() {
	defer n.wg.Done()
	for {
		select {
		case <-n.life.Done():
			return
		case r := <-n.replCh:
			for _, o := range r.to {
				if n.life.Err() == nil && n.pushEntries(n.life, o, []BatchEntry{r.entry}) > 0 {
					n.m.ReplicaPush.Inc()
				}
			}
		}
	}
}

// handoffEntries selects the cached entries member now owns,
// hottest-profile-first: the predictor's decayed heat orders the
// transfer (stable sort, so entries the predictor has never seen keep
// their MRU order), then the byte budget cuts the tail. A joining node
// therefore warms up in the order the workload will actually ask.
func (n *Node) handoffEntries(member string, maxBytes int) []*proxy.Artifact {
	ring := n.currentRing()
	entries := n.heatOrdered(n.local.CacheSnapshot(0, func(arch, class string) bool {
		return ring.Owners(KeyFor(arch, class), 1)[0] == member
	}))
	out := entries[:0]
	total := 0
	for _, e := range entries {
		if maxBytes > 0 && total+len(e.Data) > maxBytes && len(out) > 0 {
			break
		}
		out = append(out, e)
		total += len(e.Data)
		if maxBytes > 0 && total >= maxBytes {
			break
		}
	}
	return out
}

// heatOrdered stable-sorts cache entries by descending predictor heat;
// a nil predictor leaves the MRU order untouched.
func (n *Node) heatOrdered(entries []*proxy.Artifact) []*proxy.Artifact {
	if n.predictor != nil {
		sort.SliceStable(entries, func(i, j int) bool {
			return n.predictor.Heat(entries[i].Arch, entries[i].Class) >
				n.predictor.Heat(entries[j].Arch, entries[j].Class)
		})
	}
	return entries
}

// PullHandoff asks every live peer for the cached entries this node now
// owns and warms the local cache with them. Called automatically after
// a ring change (handoffWorker); manual-mode tests call it directly.
// Best-effort: a peer that sheds or fails just means a colder start.
func (n *Node) PullHandoff(ctx context.Context) int {
	timer := telemetry.StartTimer()
	total := 0
	for _, p := range n.mship.Peers(func(s memberState) bool { return s == stateAlive }) {
		if ctx.Err() != nil {
			break
		}
		total += n.pullFrom(ctx, p)
	}
	n.m.Handoff.Observe(timer.Elapsed())
	return total
}

// pullFrom pulls this node's inherited entries from one peer over the
// batch protocol. Handed-off entries re-verify like any other hop
// (ingest); an entry whose attestation fails is dropped — inheriting a
// key is not worth inheriting corruption — and ledgered against the
// peer: it verified those bytes before it stored them, so handing them
// on tampered is its own divergence.
func (n *Node) pullFrom(ctx context.Context, peer string) int {
	br, err := n.doBatch(ctx, peer, BatchPath, BatchRequest{
		Reason: proxy.ReasonHandoff, Member: n.cfg.Self, MaxBytes: handoffMaxBytes,
	}, handoffTimeout, nil)
	if err != nil {
		return 0
	}
	got := 0
	for _, e := range br.Entries {
		e.Reason = proxy.ReasonHandoff
		if n.ingest(e, peer) == nil {
			got++
		}
	}
	return got
}

// pushHandoff is the drain-side transfer: hand the local cache,
// hottest-profile-first, to each key's new primary (the ring no longer
// includes this node once DrainSelf has run), one batch per receiver.
func (n *Node) pushHandoff(ctx context.Context) error {
	ring := n.currentRing()
	entries := n.heatOrdered(n.local.CacheSnapshot(handoffMaxBytes, nil))
	batches := make(map[string][]BatchEntry)
	order := make([]string, 0, 4) // deterministic push order (hottest first)
	for _, e := range entries {
		owner := ring.Owners(KeyFor(e.Arch, e.Class), 1)[0]
		if owner == n.cfg.Self {
			return nil // alone in the ring: nobody to hand off to
		}
		if n.mship.State(owner) != stateAlive {
			continue
		}
		if _, seen := batches[owner]; !seen {
			order = append(order, owner)
		}
		batches[owner] = append(batches[owner], toWire(e, proxy.ReasonHandoff))
	}
	for _, owner := range order {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		n.m.HandoffKeys.Add(int64(n.pushEntries(ctx, owner, batches[owner])))
	}
	return nil
}

// handoffWorker runs a pull handoff after each ring change (coalesced
// through a 1-slot channel: membership churn mid-pull just schedules
// one more round). It waits one gossip interval first: the ring change
// that scheduled the pull — typically this node's own join — needs a
// round to reach the peers whose handoff filters must already count
// this node as an owner.
func (n *Node) handoffWorker() {
	defer n.wg.Done()
	for {
		select {
		case <-n.life.Done():
			return
		case <-n.handoffCh:
		}
		select {
		case <-n.life.Done():
			return
		case <-time.After(n.cfg.GossipInterval):
		}
		ctx, cancel := context.WithTimeout(n.life, handoffTimeout)
		n.PullHandoff(ctx)
		cancel()
	}
}

// pokeHandoff schedules a pull handoff (non-blocking, coalescing).
func (n *Node) pokeHandoff() {
	select {
	case n.handoffCh <- struct{}{}:
	default:
	}
}
