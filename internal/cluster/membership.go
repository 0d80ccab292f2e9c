package cluster

// Live membership: the ring is no longer frozen at boot. Every node
// keeps a versioned view of the fleet — who is alive, suspected,
// confirmed dead, or deliberately draining — and exchanges it with
// peers over a small gossip protocol (gossip.go). The view is a state
// CRDT: merging two views is commutative, associative, and idempotent,
// so any gossip topology converges every node onto the same membership
// without coordination, and with it onto the same consistent-hash ring.
//
// The design follows SWIM's split between *assertions* and *evidence*:
//
//   - Each member entry carries an incarnation number owned by the
//     member itself. Only the subject bumps it — to refute a suspicion
//     ("I am alive, and newer than the claim that I am not") or to
//     announce a graceful drain.
//   - Observers assert suspect/dead about a peer at the peer's current
//     incarnation. At equal incarnations, worse news wins (dead >
//     draining > suspect > alive): a false "dead" is repaired by the
//     subject's next refutation at a higher incarnation, while a lost
//     "dead" would strand requests on a corpse.
//   - Every accepted assertion bumps the entry's version. The sum of
//     all versions is the membership *epoch*: monotone under merge,
//     equal on two nodes exactly when their views agree, cheap to
//     piggyback on peer-fill responses as a one-number view digest.
//
// Suspicion comes from two sources: the per-peer circuit breaker
// tripping open (the data path noticed the peer failing) and repeated
// gossip failures (the control path noticed). A suspect that stays
// unrefuted for SuspectTimeout is declared dead and leaves the ring.

import (
	"math"
	"sort"
	"sync"
	"time"

	"dvm/internal/telemetry"
)

// Member states, ordered by badness: at equal incarnations a merge
// keeps the higher state.
type memberState int

const (
	stateAlive memberState = iota
	stateSuspect
	stateDraining
	stateDead
)

func (s memberState) String() string {
	switch s {
	case stateAlive:
		return telemetry.MemberAlive
	case stateSuspect:
		return telemetry.MemberSuspect
	case stateDraining:
		return telemetry.MemberDraining
	default:
		return telemetry.MemberDead
	}
}

func stateFromString(s string) (memberState, bool) {
	switch s {
	case telemetry.MemberAlive:
		return stateAlive, true
	case telemetry.MemberSuspect:
		return stateSuspect, true
	case telemetry.MemberDraining:
		return stateDraining, true
	case telemetry.MemberDead:
		return stateDead, true
	default:
		return stateDead, false
	}
}

// MemberInfo is one member entry, in both the wire form (gossip JSON)
// and the diagnostic snapshot.
type MemberInfo struct {
	// Addr is the member's peer URL.
	Addr string `json:"addr"`
	// Incarnation is the subject-owned freshness number: a higher
	// incarnation always wins a merge, whatever the states.
	Incarnation uint64 `json:"inc"`
	// State is "alive", "suspect", "draining", or "dead".
	State string `json:"state"`
	// Version counts accepted assertions about this member; the sum
	// over members is the view's epoch.
	Version uint64 `json:"v"`
}

// View is the gossip wire form: one node's complete membership view.
type View struct {
	// From is the sender's peer URL (so a receiver learns of the sender
	// itself even on first contact).
	From string `json:"from"`
	// Epoch is the sender's view digest (sum of entry versions).
	Epoch uint64 `json:"epoch"`
	// Members is the full entry list. Fleets here are tens of nodes;
	// full-state gossip is simpler than SWIM's piggybacked deltas and
	// converges in O(log n) rounds all the same.
	Members []MemberInfo `json:"members"`
}

// entry is the in-memory member record.
type entry struct {
	addr  string
	inc   uint64
	state memberState
	ver   uint64
	// suspectedAt is when *this node* learned of the suspicion (local
	// clock; never gossiped). Drives the suspect -> dead promotion.
	suspectedAt time.Time
}

// rank orders (incarnation, state) pairs for merging.
func better(a, b *entry) bool {
	if a.inc != b.inc {
		return a.inc > b.inc
	}
	return a.state > b.state
}

// membership is one node's convergent view of the fleet.
type membership struct {
	self string
	now  func() time.Time

	mu      sync.Mutex
	entries map[string]*entry

	// onChange is invoked (outside mu) after every mutation that
	// changed any entry; ringChanged reports whether the set of
	// ring-eligible members changed (the node rebuilds its ring then).
	onChange func(ringChanged bool)
}

// newMembership seeds the view: self plus the configured peers, all
// alive at incarnation 1, version 1 — every node booted from the same
// seed list computes the identical view and epoch, so a static fleet
// behaves exactly as the pre-gossip ring did.
func newMembership(self string, peers []string, now func() time.Time) *membership {
	if now == nil {
		now = time.Now
	}
	m := &membership{self: self, now: now, entries: make(map[string]*entry)}
	m.entries[self] = &entry{addr: self, inc: 1, state: stateAlive, ver: 1}
	for _, p := range peers {
		if p == self {
			continue
		}
		m.entries[p] = &entry{addr: p, inc: 1, state: stateAlive, ver: 1}
	}
	return m
}

// fire runs the onChange hook outside the lock.
func (m *membership) fire(changed, ringChanged bool) {
	if changed && m.onChange != nil {
		m.onChange(ringChanged)
	}
}

// epochLocked sums entry versions (caller holds mu).
func (m *membership) epochLocked() uint64 {
	var e uint64
	for _, ent := range m.entries {
		e += ent.ver
	}
	return e
}

// Epoch returns the view digest.
func (m *membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochLocked()
}

// ringMembersLocked returns the members eligible for ring ownership:
// alive and suspect. A suspect still owns its keys — SWIM suspicion is
// often a false positive, and yanking ownership on every flap would
// thrash the ring; only confirmed death or a deliberate drain remaps.
// If nothing is eligible (self draining, everyone else gone) the node
// falls back to a ring of itself so requests keep resolving locally.
func (m *membership) ringMembersLocked() []string {
	var out []string
	for _, ent := range m.entries {
		if ent.state == stateAlive || ent.state == stateSuspect {
			out = append(out, ent.addr)
		}
	}
	if len(out) == 0 {
		out = []string{m.self}
	}
	sort.Strings(out)
	return out
}

// RingMembers returns the current ring-eligible members, sorted.
func (m *membership) RingMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ringMembersLocked()
}

// View snapshots the wire form.
func (m *membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := View{From: m.self, Epoch: m.epochLocked()}
	for _, ent := range m.entries {
		v.Members = append(v.Members, MemberInfo{
			Addr: ent.addr, Incarnation: ent.inc, State: ent.state.String(), Version: ent.ver,
		})
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].Addr < v.Members[j].Addr })
	return v
}

// Snapshot returns the per-member view for diagnostics and /healthz,
// sorted by address.
func (m *membership) Snapshot() []MemberInfo {
	return m.View().Members
}

// State returns a member's current state (dead if unknown).
func (m *membership) State(addr string) memberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent, ok := m.entries[addr]; ok {
		return ent.state
	}
	return stateDead
}

// Merge folds a remote view into the local one. For each remote entry
// the winner is decided by (incarnation, state badness); the merged
// version is the max of both sides, so the epoch is monotone and two
// nodes that accepted the same set of assertions agree on it exactly.
// If the remote view claims *this node* is anything but what it knows
// itself to be, the node refutes at a higher incarnation — the only
// authority on a node's own liveness is the node.
func (m *membership) Merge(v View) {
	m.mu.Lock()
	changed, ringChanged := false, false
	before := m.ringMembersLocked()
	apply := func(in MemberInfo) {
		st, ok := stateFromString(in.State)
		// Honest counters grow by one per assertion; one in the top half
		// of its range is a forgery the subject could not outbid without
		// wrapping its own incarnation (or its version) to 0.
		if !ok || in.Addr == "" || in.Incarnation > math.MaxInt64 || in.Version > math.MaxInt64 {
			return
		}
		remote := &entry{addr: in.Addr, inc: in.Incarnation, state: st, ver: in.Version}
		local, exists := m.entries[in.Addr]
		if !exists {
			if in.Addr == m.self {
				return // never learn about self from others (seeded at boot)
			}
			if st == stateSuspect {
				remote.suspectedAt = m.now()
			}
			m.entries[in.Addr] = remote
			changed = true
			return
		}
		if in.Addr == m.self {
			// Refute any non-local claim about self: alive (or draining,
			// if a drain is in progress) at an incarnation above the
			// claim. The bumped incarnation wins every future merge until
			// someone observes us fail again.
			if better(remote, local) {
				local.inc = remote.inc + 1
				local.ver = maxU64(local.ver, remote.ver) + 1
				changed = true
			}
			return
		}
		if better(remote, local) {
			if remote.state == stateSuspect && local.state != stateSuspect {
				remote.suspectedAt = m.now()
			} else if remote.state == stateSuspect {
				remote.suspectedAt = local.suspectedAt
			}
			remote.ver = maxU64(local.ver, remote.ver)
			m.entries[in.Addr] = remote
			changed = true
		} else if remote.ver > local.ver {
			local.ver = remote.ver
			changed = true
		}
	}
	for _, in := range v.Members {
		apply(in)
	}
	// First contact from an unseeded sender: learn the sender itself.
	if v.From != "" && v.From != m.self {
		if _, ok := m.entries[v.From]; !ok {
			m.entries[v.From] = &entry{addr: v.From, inc: 1, state: stateAlive, ver: 1}
			changed = true
		}
	}
	after := m.ringMembersLocked()
	ringChanged = !equalStrings(before, after)
	m.mu.Unlock()
	m.fire(changed, ringChanged)
}

// assert applies a local state asssertion about addr: if the member's
// current state is less bad, move it to st and bump the version.
func (m *membership) assert(addr string, st memberState) {
	m.mu.Lock()
	ent, ok := m.entries[addr]
	if !ok || addr == m.self || ent.state >= st {
		m.mu.Unlock()
		return
	}
	before := m.ringMembersLocked()
	ent.state = st
	ent.ver++
	if st == stateSuspect {
		ent.suspectedAt = m.now()
	}
	ringChanged := !equalStrings(before, m.ringMembersLocked())
	m.mu.Unlock()
	m.fire(true, ringChanged)
}

// Suspect marks a peer suspected of failure (breaker trip, gossip
// failures). A no-op if the peer is already suspect or worse.
func (m *membership) Suspect(addr string) { m.assert(addr, stateSuspect) }

// NoteDraining records a peer's own draining announcement (seen as the
// X-DVM-Draining response flag before gossip catches up).
func (m *membership) NoteDraining(addr string) { m.assert(addr, stateDraining) }

// SweepSuspects promotes suspects past the timeout to dead. Returns
// the members it declared dead.
func (m *membership) SweepSuspects(timeout time.Duration) []string {
	m.mu.Lock()
	var died []string
	before := m.ringMembersLocked()
	now := m.now()
	for _, ent := range m.entries {
		if ent.state == stateSuspect && !ent.suspectedAt.IsZero() && now.Sub(ent.suspectedAt) >= timeout {
			ent.state = stateDead
			ent.ver++
			died = append(died, ent.addr)
		}
	}
	ringChanged := len(died) > 0 && !equalStrings(before, m.ringMembersLocked())
	m.mu.Unlock()
	m.fire(len(died) > 0, ringChanged)
	return died
}

// Refute clears a local suspicion after direct evidence of life (a
// successful exchange with the peer) when no higher-incarnation claim
// has arrived yet. The subject's own gossip refutation is the durable
// fix; this just stops the suspect timer between gossip rounds.
func (m *membership) Refute(addr string) {
	m.mu.Lock()
	ent, ok := m.entries[addr]
	if !ok || ent.state != stateSuspect {
		m.mu.Unlock()
		return
	}
	ent.state = stateAlive
	ent.ver++
	m.mu.Unlock()
	m.fire(true, false)
}

// DrainSelf announces this node's graceful departure: draining at a
// bumped incarnation, so the announcement wins over any concurrent
// alive/suspect claim and the ring drops this node everywhere the
// gossip reaches.
func (m *membership) DrainSelf() {
	m.mu.Lock()
	ent := m.entries[m.self]
	if ent.state == stateDraining {
		m.mu.Unlock()
		return
	}
	before := m.ringMembersLocked()
	ent.state = stateDraining
	ent.inc++
	ent.ver++
	ringChanged := !equalStrings(before, m.ringMembersLocked())
	m.mu.Unlock()
	m.fire(true, ringChanged)
}

// Draining reports whether this node is draining.
func (m *membership) Draining() bool {
	return m.State(m.self) == stateDraining
}

// Peers returns the known members other than self whose state matches
// filter (nil = all), sorted.
func (m *membership) Peers(filter func(memberState) bool) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, ent := range m.entries {
		if ent.addr == m.self {
			continue
		}
		if filter == nil || filter(ent.state) {
			out = append(out, ent.addr)
		}
	}
	sort.Strings(out)
	return out
}

// counts returns the per-state member counts (telemetry gauges).
func (m *membership) counts() map[memberState]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[memberState]int, 4)
	for _, ent := range m.entries {
		out[ent.state]++
	}
	return out
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
