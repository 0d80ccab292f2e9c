package cluster

// Gossip: the transport that keeps every node's membership view
// (membership.go) converging. Each round a node POSTs its full view to
// every known non-dead peer and merges the view that comes back — a
// bidirectional anti-entropy exchange, so one round between two nodes
// leaves them identical. Failure evidence flows in from three places,
// the first two counted in the member's entry (membership.go):
//
//   - the data path: the link to a peer opening marks the peer suspect
//     (Node.hop, membership.settle);
//   - the control path: two consecutive failed gossip exchanges with a
//     peer mark it suspect (membership.settle);
//   - peers: suspicions and deaths asserted elsewhere arrive by merge.
//
// A suspect that stays unrefuted for SuspectTimeout is promoted to dead
// by the sweep and drops out of the ring. Views also piggyback as an
// epoch header on every peer-fill hop; an epoch mismatch pokes an
// immediate gossip round instead of waiting out the interval, so ring
// disagreement windows close on the data path's timescale.
//
// With GossipInterval < 0 no background loop runs: tests drive rounds
// explicitly with GossipNow (which also sweeps) for determinism.

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"dvm/internal/proxy"
)

// epochHeader piggybacks the sender's membership epoch on peer-protocol
// hops so view divergence is noticed without waiting for a gossip tick.
const epochHeader = "X-DVM-Epoch"

// drainingHeader marks a peer-protocol rejection as a graceful drain
// ("I am leaving, re-route") rather than overload or failure.
const drainingHeader = "X-DVM-Draining"

// maxGossipBytes bounds one gossip payload read.
const maxGossipBytes = 1 << 20

// gossipFailThreshold is how many consecutive failed exchanges with a
// peer raise a suspicion (2: one failure is routinely a blip).
const gossipFailThreshold = 2

// handleGossip answers POST /peer/v1/gossip: merge the sender's view,
// answer with ours. After the exchange both sides hold the union.
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var v View
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGossipBytes)).Decode(&v); err != nil {
		http.Error(w, "bad gossip payload", http.StatusBadRequest)
		return
	}
	n.mship.Merge(v)
	n.m.GossipRounds.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(n.mship.View())
}

// exchange performs one gossip round-trip with peer: send our view,
// merge theirs. Reports success.
func (n *Node) exchange(ctx context.Context, peer string) bool {
	body, err := json.Marshal(n.mship.View())
	if err != nil {
		return false
	}
	to, err := n.currentEpoch().target(peer)
	if err != nil {
		return false
	}
	a, err := n.peerHop.Exchange(ctx, to, &proxy.HopRequest{Method: http.MethodPost, Path: gossipV1Path,
		Header: []string{"Content-Type", "application/json"}, Body: [][]byte{body}, Timeout: n.cfg.PeerTimeout, Max: maxGossipBytes})
	var v View
	if err != nil || a.Status != http.StatusOK || json.Unmarshal(a.Body, &v) != nil {
		return false
	}
	n.mship.Merge(v)
	return true
}

// gossipRound exchanges views with every known non-dead peer, counts
// each exchange into the peer's entry, and sweeps expired suspects. A
// successful exchange is direct evidence of life: it clears a local
// suspicion without waiting for the subject's own refutation to gossip
// back.
func (n *Node) gossipRound(ctx context.Context) {
	peers := n.mship.Peers(func(s memberState) bool { return s != stateDead })
	for _, p := range peers {
		if ctx.Err() != nil {
			return
		}
		o := gossipOK
		if !n.exchange(ctx, p) {
			n.m.GossipFails.Inc()
			o = gossipFailed
		}
		n.mship.settle(p, o)
	}
	n.sweep()
}

// sweep promotes expired suspects to dead.
func (n *Node) sweep() {
	n.m.Deaths.Add(int64(len(n.mship.SweepSuspects(n.cfg.SuspectTimeout))))
}

// GossipNow runs one synchronous gossip round (exchange with every
// non-dead peer, then sweep). Production nodes run this on a ticker;
// manual-mode tests (GossipInterval < 0) call it directly so membership
// convergence is deterministic.
func (n *Node) GossipNow(ctx context.Context) { n.gossipRound(ctx) }

// pokeGossip requests an immediate gossip round (non-blocking; rounds
// already pending coalesce). Called on epoch mismatches and links
// opening so failure news travels at data-path speed.
func (n *Node) pokeGossip() {
	select {
	case n.pokeCh <- struct{}{}:
	default:
	}
}

// gossipLoop is the background driver: a round every GossipInterval,
// plus immediate rounds on pokes.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.life.Done():
			return
		case <-t.C:
		case <-n.pokeCh:
		}
		n.gossipRound(n.life)
	}
}

// Epoch returns the node's current membership epoch.
func (n *Node) Epoch() uint64 { return n.mship.Epoch() }

// noteEpoch compares a peer's piggybacked epoch header against ours and
// pokes a gossip round on mismatch.
func (n *Node) noteEpoch(header string) {
	if header == "" {
		return
	}
	e, err := strconv.ParseUint(header, 10, 64)
	if err != nil || e == n.mship.Epoch() {
		return
	}
	n.m.EpochMismatch.Inc()
	n.pokeGossip()
}

// Drain gracefully removes this node from the cluster: announce the
// departure (draining at a bumped incarnation, so it wins any merge),
// broadcast the news, then hand the cache off to each key's new owners
// while peers re-route around us. Requests that still arrive during the
// drain are shed with 429 + X-DVM-Draining. Bounded by ctx.
func (n *Node) Drain(ctx context.Context) error {
	n.mship.DrainSelf()
	// Broadcast before handing off: receivers must already consider us
	// gone, or the handoff filter ("keys the requester now owns") would
	// still route keys back to us.
	for _, p := range n.mship.Peers(func(s memberState) bool { return s == stateAlive || s == stateSuspect }) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = n.exchange(ctx, p)
	}
	return n.pushHandoff(ctx)
}

// Draining reports whether this node has begun a graceful departure.
func (n *Node) Draining() bool { return n.mship.Draining() }

func fmtEpoch(e uint64) string { return strconv.FormatUint(e, 10) }
