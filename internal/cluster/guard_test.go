package cluster

import (
	"errors"
	"testing"
	"time"

	"dvm/internal/resilience"
)

// guardUnderTest is one circuit guard driven through the script: admit
// asks for one call, settle ends an admitted call, state reads the guard
// as the next call would find it.
type guardUnderTest struct {
	admit  func() error
	settle func(how string)
	state  func() string
}

// guardsUnderTest builds the origin-style breaker and a peer link, each
// opening after threshold consecutive counted failures and probing after
// cooldown, on clk.
func guardsUnderTest(clk *fakeClock, threshold int, cooldown time.Duration) map[string]guardUnderTest {
	b := resilience.NewBreaker(threshold, cooldown, clk.now)
	m := newMembership("a", []string{"b"}, clk.now)
	m.link = linkTimings{threshold, cooldown}
	return map[string]guardUnderTest{
		"breaker": {
			admit: b.Allow,
			settle: func(how string) {
				switch how {
				case "ok":
					b.Success()
				case "fail":
					b.Failure()
				default:
					b.Cancel()
				}
			},
			state: func() string { return b.State().String() },
		},
		"link": {
			admit: func() error { return m.admit("b") },
			settle: func(how string) {
				m.settle("b", map[string]outcome{"ok": linkAlive, "fail": linkFailed, "abandon": linkAbandoned}[how])
			},
			state: func() string { return m.views()[1].Link },
		},
	}
}

// TestGuardCharacterization drives the origin-style breaker and the peer
// link through one script of outcomes and clock steps and holds both to
// the same state after every step: threshold failures, a refusal inside
// the cooldown, a failed probe, an abandoned probe handed back, a
// closing probe and a late success while open.
func TestGuardCharacterization(t *testing.T) {
	const threshold, cooldown = 3, time.Minute
	script := []struct{ do, want string }{
		{"admit", "closed"},
		{"fail", "closed"},
		{"admit", "closed"},
		{"ok", "closed"}, // a success resets the count
		{"admit", "closed"},
		{"fail", "closed"},
		{"admit", "closed"},
		{"fail", "closed"},
		{"admit", "closed"}, // this call is still out when the guard opens
		{"admit", "closed"},
		{"fail", "open"},         // the third consecutive failure
		{"refused", "open"},      // inside the cooldown
		{"ok", "open"},           // the late success: the guard stays open
		{"half", "open"},         // half the cooldown
		{"refused", "open"},      // still inside it
		{"half", "half-open"},    // the cooldown is over
		{"admit", "half-open"},   // the probe
		{"refused", "half-open"}, // one probe at a time
		{"fail", "open"},         // a failed probe opens it again
		{"refused", "open"},
		{"cooldown", "half-open"},
		{"admit", "half-open"},
		{"abandon", "half-open"}, // the caller gave up: the slot comes back
		{"admit", "half-open"},
		{"ok", "closed"}, // a closing probe
		{"admit", "closed"},
		{"fail", "closed"}, // the count starts afresh
		{"admit", "closed"},
		{"fail", "closed"},
		{"admit", "closed"},
		{"fail", "open"},
	}
	for _, name := range []string{"breaker", "link"} {
		clk := newFakeClock()
		g := guardsUnderTest(clk, threshold, cooldown)[name]
		for i, s := range script {
			switch s.do {
			case "admit":
				if err := g.admit(); err != nil {
					t.Fatalf("%s step %d: admit = %v, want nil", name, i, err)
				}
			case "refused":
				if err := g.admit(); !errors.Is(err, resilience.ErrOpen) {
					t.Fatalf("%s step %d: admit = %v, want ErrOpen", name, i, err)
				}
			case "half":
				clk.advance(cooldown / 2)
			case "cooldown":
				clk.advance(cooldown)
			default:
				g.settle(s.do)
			}
			if got := g.state(); got != s.want {
				t.Fatalf("%s step %d (%s): %s, want %s", name, i, s.do, got, s.want)
			}
		}
	}
}
