package cluster

// Gossip: the transport that keeps every node's membership view
// (membership.go) converging. Each round a node POSTs its full view to
// every known non-dead peer and merges the view that comes back — a
// bidirectional anti-entropy exchange, so one round between two nodes
// leaves them identical. Failure evidence flows in from three places:
//
//   - the data path: a peer-fill circuit breaker tripping open marks
//     the peer suspect (wired in Node.breaker via OnStateChange);
//   - the control path: two consecutive failed gossip exchanges with a
//     peer mark it suspect;
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
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
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

// gossipState is the Node's control-path bookkeeping.
type gossipState struct {
	mu    sync.Mutex
	fails map[string]int // consecutive gossip failures per peer
}

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
	n.cGossipRounds.Inc()
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
	ctx, cancel := context.WithTimeout(ctx, n.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+gossipV1Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var v View
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxGossipBytes)).Decode(&v); err != nil {
		return false
	}
	n.mship.Merge(v)
	return true
}

// gossipRound exchanges views with every known non-dead peer, updates
// the consecutive-failure counters, and sweeps expired suspects.
func (n *Node) gossipRound(ctx context.Context) {
	peers := n.mship.Peers(func(s memberState) bool { return s != stateDead })
	for _, p := range peers {
		if ctx.Err() != nil {
			return
		}
		if n.exchange(ctx, p) {
			n.gossip.mu.Lock()
			n.gossip.fails[p] = 0
			n.gossip.mu.Unlock()
			// Direct evidence of life clears a local suspicion without
			// waiting for the subject's own refutation to gossip back.
			n.mship.Refute(p)
			continue
		}
		n.cGossipFails.Inc()
		n.gossip.mu.Lock()
		n.gossip.fails[p]++
		f := n.gossip.fails[p]
		n.gossip.mu.Unlock()
		if f >= gossipFailThreshold {
			n.suspect(p)
		}
	}
	n.sweep()
}

// suspect raises a failure suspicion about peer and counts it.
func (n *Node) suspect(peer string) {
	if n.mship.State(peer) < stateSuspect {
		n.cSuspects.Inc()
	}
	n.mship.Suspect(peer)
}

// sweep promotes expired suspects to dead.
func (n *Node) sweep() {
	died := n.mship.SweepSuspects(n.cfg.SuspectTimeout)
	for range died {
		n.cDeaths.Inc()
	}
}

// GossipNow runs one synchronous gossip round (exchange with every
// non-dead peer, then sweep). Production nodes run this on a ticker;
// manual-mode tests (GossipInterval < 0) call it directly so membership
// convergence is deterministic.
func (n *Node) GossipNow(ctx context.Context) { n.gossipRound(ctx) }

// pokeGossip requests an immediate gossip round (non-blocking; rounds
// already pending coalesce). Called on epoch mismatches and breaker
// trips so failure news travels at data-path speed.
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

// Members returns the node's live view of the fleet, sorted by address.
func (n *Node) Members() []MemberInfo { return n.mship.Snapshot() }

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
	n.cEpochMismatch.Inc()
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

func fmtEpoch(e uint64) string { return fmt.Sprint(e) }
