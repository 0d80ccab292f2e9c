package cluster

// Unit tests for the membership state CRDT: merge convergence,
// self-refutation, epoch behaviour, the suspect -> dead sweep, and the
// drain announcement. These run against the in-memory structure with a
// fake clock; the network layer is covered by the integration tests in
// churn_test.go.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dvm/internal/resilience"
)

// suspect asserts, as an observer, that addr is failing.
func suspect(m *membership, addr string) { m.assert(addr, stateSuspect) }

// fakeClock is a manually-advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func mkMembership(self string, peers []string) (*membership, *fakeClock) {
	clk := newFakeClock()
	return newMembership(self, peers, clk.now), clk
}

// TestMembershipMergeCommutative: two observers that receive the same
// set of views in different orders converge on the identical view and
// epoch — the property that lets any gossip topology agree.
func TestMembershipMergeCommutative(t *testing.T) {
	// Three views carrying conflicting news about the same fleet.
	a, _ := mkMembership("a", []string{"b", "c"})
	b, _ := mkMembership("b", []string{"a", "c"})
	c, _ := mkMembership("c", []string{"a", "b"})
	suspect(a, "c")    // a thinks c is failing
	suspect(b, "c")    // so does b...
	b.SweepSuspects(0) // ...and already declared it dead
	c.DrainSelf()      // c meanwhile announced a graceful drain (higher incarnation)
	views := []View{a.View(), b.View(), c.View()}

	x, _ := mkMembership("o", nil)
	y, _ := mkMembership("o", nil)
	x.Merge(views[0])
	x.Merge(views[1])
	x.Merge(views[2])
	y.Merge(views[2])
	y.Merge(views[0])
	y.Merge(views[1])
	if !reflect.DeepEqual(x.View(), y.View()) {
		t.Errorf("merge order changed the view:\n  012: %+v\n  201: %+v", x.View(), y.View())
	}
	if x.Epoch() != y.Epoch() {
		t.Errorf("merge order changed the epoch: %d vs %d", x.Epoch(), y.Epoch())
	}
	// c's drain is at a bumped incarnation: it must beat b's dead claim.
	if got := x.State("c"); got != stateDraining {
		t.Errorf("state(c) = %v, want draining (higher incarnation wins)", got)
	}
	// Idempotence: replaying every view changes nothing.
	before := x.View()
	for _, v := range views {
		x.Merge(v)
	}
	if !reflect.DeepEqual(before, x.View()) {
		t.Errorf("re-merging the same views changed the view:\n  before: %+v\n  after:  %+v", before, x.View())
	}
}

// TestMembershipWorseStateWinsAtEqualIncarnation: at the same
// incarnation a merge keeps the worse state; a better state at the same
// incarnation cannot resurrect a member.
func TestMembershipWorseStateWinsAtEqualIncarnation(t *testing.T) {
	m, _ := mkMembership("a", []string{"b"})
	m.Merge(View{From: "x", Members: []MemberInfo{{Addr: "b", Incarnation: 1, State: "suspect", Version: 2}}})
	if got := m.State("b"); got != stateSuspect {
		t.Fatalf("state(b) = %v, want suspect", got)
	}
	// An alive claim at the same incarnation is stale news: ignored.
	m.Merge(View{From: "x", Members: []MemberInfo{{Addr: "b", Incarnation: 1, State: "alive", Version: 1}}})
	if got := m.State("b"); got != stateSuspect {
		t.Errorf("alive@1 resurrected suspect@1: state(b) = %v", got)
	}
	m.Merge(View{From: "x", Members: []MemberInfo{{Addr: "b", Incarnation: 1, State: "dead", Version: 3}}})
	if got := m.State("b"); got != stateDead {
		t.Errorf("state(b) = %v, want dead (worse state wins)", got)
	}
	// Only the subject's own higher incarnation revives it.
	m.Merge(View{From: "x", Members: []MemberInfo{{Addr: "b", Incarnation: 2, State: "alive", Version: 4}}})
	if got := m.State("b"); got != stateAlive {
		t.Errorf("alive@2 did not beat dead@1: state(b) = %v", got)
	}
}

// TestMembershipSelfRefutation: a node that hears it is suspected
// refutes at a higher incarnation, and the refutation wins every later
// replay of the stale claim.
func TestMembershipSelfRefutation(t *testing.T) {
	m, _ := mkMembership("a", []string{"b"})
	claim := View{From: "b", Members: []MemberInfo{{Addr: "a", Incarnation: 1, State: "dead", Version: 2}}}
	m.Merge(claim)
	if got := m.State("a"); got != stateAlive {
		t.Fatalf("after refutation state(self) = %v, want alive", got)
	}
	var selfInc uint64
	for _, mi := range m.View().Members {
		if mi.Addr == "a" {
			selfInc = mi.Incarnation
		}
	}
	if selfInc <= 1 {
		t.Fatalf("refutation did not bump incarnation: inc = %d", selfInc)
	}
	// The refutation must now win on any third party that saw the claim.
	o, _ := mkMembership("o", nil)
	o.Merge(claim)
	o.Merge(m.View())
	if got := o.State("a"); got != stateAlive {
		t.Errorf("observer kept the dead claim over the refutation: state(a) = %v", got)
	}
	// Replaying the stale claim is a no-op.
	epoch := m.Epoch()
	m.Merge(claim)
	if m.Epoch() != epoch || m.State("a") != stateAlive {
		t.Errorf("stale claim replay changed state: epoch %d -> %d, state %v", epoch, m.Epoch(), m.State("a"))
	}
}

// TestMembershipEpochMonotoneAndAgreement: the epoch never decreases
// under any mutation, and one bidirectional exchange equalizes it.
func TestMembershipEpochMonotoneAndAgreement(t *testing.T) {
	a, _ := mkMembership("a", []string{"b", "c"})
	b, _ := mkMembership("b", []string{"a", "c"})
	last := a.Epoch()
	check := func(op string) {
		t.Helper()
		if e := a.Epoch(); e < last {
			t.Errorf("epoch decreased after %s: %d -> %d", op, last, e)
		} else {
			last = e
		}
	}
	suspect(a, "c")
	check("suspect")
	a.SweepSuspects(0)
	check("sweep")
	a.Merge(b.View())
	check("merge")
	a.DrainSelf()
	check("drain")
	// Bidirectional exchange: b merges a's post-merge view, then both
	// hold the same assertions and the same epoch.
	b.Merge(a.View())
	a.Merge(b.View())
	check("exchange")
	if a.Epoch() != b.Epoch() {
		t.Errorf("epochs disagree after exchange: a=%d b=%d", a.Epoch(), b.Epoch())
	}
}

// TestMembershipSuspectSweep: a suspect outlasting the timeout is
// declared dead and leaves the ring; a refuted suspect is not.
func TestMembershipSuspectSweep(t *testing.T) {
	m, clk := mkMembership("a", []string{"b", "c"})
	suspect(m, "b")
	if got := m.RingMembers(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("suspect left the ring early: %v", got)
	}
	if died := m.SweepSuspects(time.Second); len(died) != 0 {
		t.Errorf("sweep before timeout declared deaths: %v", died)
	}
	clk.advance(2 * time.Second)
	if died := m.SweepSuspects(time.Second); !reflect.DeepEqual(died, []string{"b"}) {
		t.Errorf("sweep after timeout: died = %v, want [b]", died)
	}
	if got := m.RingMembers(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("dead member still in ring: %v", got)
	}
	// Refutation path: direct evidence of life cancels the timer.
	suspect(m, "c")
	m.settle("c", gossipOK)
	clk.advance(2 * time.Second)
	if died := m.SweepSuspects(time.Second); len(died) != 0 {
		t.Errorf("refuted suspect still died: %v", died)
	}
	if got := m.State("c"); got != stateAlive {
		t.Errorf("state(c) = %v, want alive after refute", got)
	}
}

// TestMembershipDrainSelf: draining removes self from the ring (while
// peers remain), survives stale alive claims, and is idempotent.
func TestMembershipDrainSelf(t *testing.T) {
	m, _ := mkMembership("a", []string{"b"})
	m.DrainSelf()
	if !m.Draining() {
		t.Fatal("Draining() = false after DrainSelf")
	}
	if got := m.RingMembers(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("ring after drain = %v, want [b]", got)
	}
	// A stale alive@1 claim about us must not cancel the drain: the
	// drain bumped our incarnation past it.
	m.Merge(View{From: "b", Members: []MemberInfo{{Addr: "a", Incarnation: 1, State: "alive", Version: 1}}})
	if !m.Draining() {
		t.Error("stale alive claim cancelled the drain")
	}
	epoch := m.Epoch()
	m.DrainSelf()
	if m.Epoch() != epoch {
		t.Error("second DrainSelf changed the epoch")
	}
	// A lone drained node falls back to a ring of itself so local
	// requests keep resolving.
	solo, _ := mkMembership("a", nil)
	solo.DrainSelf()
	if got := solo.RingMembers(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("lone drained node ring = %v, want [a]", got)
	}
}

// TestRingOwners: Owners returns distinct members, primary first,
// clamped to the fleet size.
func TestRingOwners(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4"}
	r, err := NewRing(members, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{KeyFor("dvm", "a/B"), KeyFor("dvm", "c/D"), KeyFor("jdk", "a/B")} {
		owners := r.Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%q, 2) returned %d members", key, len(owners))
		}
		if owners[0] != r.Owner(key) {
			t.Errorf("Owners[0] = %s, want primary %s", owners[0], r.Owner(key))
		}
		if owners[0] == owners[1] {
			t.Errorf("Owners(%q, 2) repeated %s", key, owners[0])
		}
		all := r.Owners(key, 99)
		if len(all) != len(members) {
			t.Errorf("Owners(%q, 99) = %d members, want %d", key, len(all), len(members))
		}
		seen := map[string]bool{}
		for _, o := range all {
			if seen[o] {
				t.Errorf("Owners(%q, 99) repeated %s", key, o)
			}
			seen[o] = true
		}
		if got := r.Owners(key, 0); len(got) != 1 || got[0] != r.Owner(key) {
			t.Errorf("Owners(%q, 0) = %v, want just the primary", key, got)
		}
	}
}

// TestLedgerQuarantine: QuarantineAfter strikes quarantine a member, and
// its view reports the strikes.
func TestLedgerQuarantine(t *testing.T) {
	p := "http://evil:1"
	m := newMembership("http://self:1", []string{p}, nil)
	if m.quarantined(p) {
		t.Fatal("fresh peer already quarantined")
	}
	if m.strike(p) {
		t.Fatal("quarantined after 1 divergence, want threshold 3")
	}
	m.strike(p)
	if !m.strike(p) {
		t.Fatal("not quarantined after 3 divergences")
	}
	if !m.quarantined(p) {
		t.Fatal("quarantined disagrees with strike's return")
	}
	var struck []PeerView
	for _, v := range m.views() {
		if v.Divergences > 0 {
			struck = append(struck, v)
		}
	}
	if len(struck) != 1 || struck[0].Member != p || struck[0].Divergences != 3 || !struck[0].Quarantined {
		t.Fatalf("struck members = %+v", struck)
	}
}

// TestLinkOpensProbesAndCloses walks one peer's link through its states
// on a fake clock: linkThreshold counted failures open it and raise a
// suspicion; after linkCooldown exactly one probe goes out; an abandoned
// probe hands the slot back, a failed one reopens the link, and a
// successful one closes it and refutes the suspicion.
func TestLinkOpensProbesAndCloses(t *testing.T) {
	clk := newFakeClock()
	p := "b"
	m := newMembership("a", []string{p}, clk.now)
	link := func() string { return m.views()[1].Link }
	for i := 1; i <= linkThreshold; i++ {
		if err := m.admit(p); err != nil {
			t.Fatalf("closed link refused hop %d: %v", i, err)
		}
		if opened, last := m.settle(p, linkFailed), i == linkThreshold; opened != last {
			t.Fatalf("failure %d: opened=%v, want %v", i, opened, last)
		}
	}
	if link() != "open" || m.State(p) != stateSuspect {
		t.Fatalf("after %d failures: link %s, state %v; want open, suspect", linkThreshold, link(), m.State(p))
	}
	if err := m.admit(p); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("open link admitted a hop: %v", err)
	}
	clk.advance(linkCooldown)
	if link() != "half-open" {
		t.Fatalf("after the cooldown the link reads %s, want half-open", link())
	}
	if err := m.admit(p); err != nil {
		t.Fatalf("the probe was refused: %v", err)
	}
	if err := m.admit(p); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("a second probe went out: %v", err)
	}
	m.settle(p, linkAbandoned)
	if err := m.admit(p); err != nil {
		t.Fatalf("an abandoned probe kept the slot: %v", err)
	}
	if !m.settle(p, linkFailed) {
		t.Fatal("a failed probe did not reopen the link")
	}
	if err := m.admit(p); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("reopened link admitted a hop: %v", err)
	}
	clk.advance(linkCooldown)
	if err := m.admit(p); err != nil {
		t.Fatalf("the second probe was refused: %v", err)
	}
	m.settle(p, linkAlive)
	if link() != "closed" || m.State(p) != stateAlive {
		t.Fatalf("after a good probe: link %s, state %v; want closed, alive", link(), m.State(p))
	}
}

// TestMergeKeepsTheStanding: a merge that replaces a member's gossiped
// state leaves this node's standing of it — link, strikes — as it was.
func TestMergeKeepsTheStanding(t *testing.T) {
	m := newMembership("a", []string{"b"}, newFakeClock().now)
	for i := 0; i < linkThreshold; i++ {
		m.admit("b")
		m.settle("b", linkFailed)
	}
	m.strike("b")
	m.Merge(View{From: "b", Members: []MemberInfo{{Addr: "b", Incarnation: 2, State: "alive", Version: 5}}})
	v := m.views()[1]
	if v.State != "alive" || v.Link != "open" || v.Divergences != 1 {
		t.Fatalf("after a refuting merge: %+v, want alive, link open, 1 divergence", v)
	}
}
