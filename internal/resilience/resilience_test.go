package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func testBreaker(th int, cd time.Duration, c *fakeClock) *Breaker {
	return NewBreaker(th, cd, c.now)
}

// TestBreakerTransitions drives the full closed -> open -> half-open ->
// closed cycle, plus the half-open -> open failure path, table-driven
// over a scripted sequence of events.
func TestBreakerTransitions(t *testing.T) {
	type step struct {
		do   string // "fail", "ok", "advance", "allow-ok", "allow-open"
		want BreakerState
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"closed stays closed under sparse failures", []step{
			{"fail", Closed}, {"fail", Closed}, {"ok", Closed}, {"fail", Closed}, {"fail", Closed},
		}},
		{"threshold consecutive failures trip open", []step{
			{"fail", Closed}, {"fail", Closed}, {"fail", Open}, {"allow-open", Open},
		}},
		{"open admits probe after cooldown, success closes", []step{
			{"fail", Closed}, {"fail", Closed}, {"fail", Open},
			{"advance", HalfOpen}, {"allow-ok", HalfOpen}, {"ok", Closed}, {"allow-ok", Closed},
		}},
		{"half-open probe failure re-opens", []step{
			{"fail", Closed}, {"fail", Closed}, {"fail", Open},
			{"advance", HalfOpen}, {"allow-ok", HalfOpen}, {"fail", Open}, {"allow-open", Open},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			b := testBreaker(3, time.Minute, clk)
			for i, s := range tc.steps {
				switch s.do {
				case "fail":
					_ = b.Allow() // consume an admission when one is available
					b.Failure()
				case "ok":
					b.Success()
				case "advance":
					clk.advance(time.Minute)
				case "allow-ok":
					if err := b.Allow(); err != nil {
						t.Fatalf("step %d: Allow() = %v, want nil", i, err)
					}
				case "allow-open":
					if err := b.Allow(); !errors.Is(err, ErrOpen) {
						t.Fatalf("step %d: Allow() = %v, want ErrOpen", i, err)
					}
				}
				if got := b.State(); got != s.want {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.do, got, s.want)
				}
			}
		})
	}
}

func TestBreakerCounts(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(2, time.Minute, clk)
	b.Failure()
	b.Failure() // trips
	clk.advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Failure() // half-open failure: second trip
	c := b.Counts()
	if c.Trips != 2 || c.Failures != 3 || c.State != "open" {
		t.Fatalf("counts = %+v, want 2 trips, 3 failures, open", c)
	}
	clk.advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Success()
	c = b.Counts()
	if c.State != "closed" || c.Successes != 1 {
		t.Fatalf("counts after recovery = %+v, want closed, 1 success", c)
	}
}

func TestBreakerHalfOpenLimitsProbes(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(1, time.Second, clk)
	b.Failure()
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe allowed (err=%v), want ErrOpen", err)
	}
}

func TestBreakerDisabledAndNil(t *testing.T) {
	var nilB *Breaker
	if err := nilB.Allow(); err != nil {
		t.Fatalf("nil breaker refused: %v", err)
	}
	nilB.Success()
	nilB.Failure()
	off := NewBreaker(-1, 0, time.Now)
	for i := 0; i < 100; i++ {
		off.Failure()
	}
	if err := off.Allow(); err != nil {
		t.Fatalf("disabled breaker refused after failures: %v", err)
	}
}

// TestBackoffDeterministicAndBounded: retry n waits 50 ms · 2^(n-1),
// never more than 2 s.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		if got := backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestHopRetriesUntilSuccess(t *testing.T) {
	calls := 0
	h := Hop{attempts: 4}
	err := h.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil after 3", err, calls)
	}
}

func TestHopPermanentStopsRetry(t *testing.T) {
	calls := 0
	sentinel := errors.New("not found")
	h := Hop{attempts: 5}
	err := h.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestHopTimeoutSurfacesDeadline(t *testing.T) {
	h := Hop{Timeout: 5 * time.Millisecond}
	err := h.Do(context.Background(), func(ctx context.Context) error {
		<-ctx.Done()
		return fmt.Errorf("upstream hung: %w", ctx.Err())
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestHopBreakerOpenFailsFast(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(1, time.Minute, clk)
	b.Failure() // trip
	calls := 0
	h := Hop{breaker: b, attempts: 5}
	err := h.Do(context.Background(), func(context.Context) error { calls++; return nil })
	if calls != 0 {
		t.Fatalf("open breaker let %d calls through", calls)
	}
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
}

func TestHopPermanentDoesNotTripBreaker(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(1, time.Minute, clk)
	h := Hop{breaker: b}
	_ = h.Do(context.Background(), func(context.Context) error {
		return Permanent(errors.New("404"))
	})
	if got := b.State(); got != Closed {
		t.Fatalf("breaker state after permanent error = %v, want closed", got)
	}
}

// TestHopCallerCancelDoesNotTripBreaker is the overload regression:
// clients abandoning in-flight calls (canceled parent contexts) must
// not count as upstream failures, or a burst of impatient clients
// trips the breaker and blacks out a healthy origin.
func TestHopCallerCancelDoesNotTripBreaker(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(2, time.Minute, clk)
	h := Hop{breaker: b}
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := h.Do(ctx, func(actx context.Context) error {
			cancel() // the caller walks away mid-call
			<-actx.Done()
			return actx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	}
	if got := b.State(); got != Closed {
		t.Fatalf("breaker state after 10 caller cancels = %v, want closed", got)
	}
	if c := b.Counts(); c.Failures != 0 {
		t.Fatalf("breaker failures after caller cancels = %d, want 0", c.Failures)
	}
	// Attempt-deadline expiry (the upstream being slow) still counts.
	slow := Hop{breaker: b, Timeout: time.Millisecond}
	for i := 0; i < 2; i++ {
		_ = slow.Do(context.Background(), func(actx context.Context) error {
			<-actx.Done()
			return actx.Err()
		})
	}
	if got := b.State(); got == Closed {
		t.Fatal("breaker still closed after repeated upstream timeouts")
	}
}

func TestHopParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := Hop{attempts: 3}
	calls := 0
	err := h.Do(ctx, func(context.Context) error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if calls > 0 {
		t.Fatalf("cancelled ctx still ran op %d times", calls)
	}
}

// TestBreakerCancelReturnsTheProbe: a half-open probe whose caller gave
// up settles with Cancel, which counts nothing and hands the probe slot
// back, so the next call probes instead of being refused for good.
func TestBreakerCancelReturnsTheProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(1, time.Minute, clk)
	b.Failure()
	clk.advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after cooldown refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrOpen", err)
	}
	b.Cancel()
	if c := b.Counts(); c.Failures != 1 || c.Successes != 0 || c.State != "half-open" {
		t.Fatalf("after Cancel: %+v, want 1 failure, 0 successes, half-open", c)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after an abandoned probe refused: %v", err)
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after the new probe succeeded = %v, want closed", got)
	}
	b.Cancel() // closed: nothing to give back
	if got := b.State(); got != Closed {
		t.Fatalf("Cancel on a closed breaker changed it to %v", got)
	}
}

// TestNewHopFillsTheDefaults: a zero policy takes the service's timeout,
// one attempt and a breaker at DefaultThreshold and Cooldown; a negative
// threshold is no breaker.
func TestNewHopFillsTheDefaults(t *testing.T) {
	h := NewHop(Policy{}, 5*time.Second, 0)
	if h.Timeout != 5*time.Second || h.attempts != 1 || h.breaker.threshold != DefaultThreshold || h.breaker.cooldown != Cooldown {
		t.Fatalf("zero policy: timeout %v, %d attempts, threshold %d, cooldown %v", h.Timeout, h.attempts, h.breaker.threshold, h.breaker.cooldown)
	}
	h = NewHop(Policy{Timeout: time.Second, Retries: 2, BreakerThreshold: -1}, 5*time.Second, time.Minute)
	if h.Timeout != time.Second || h.attempts != 3 || !h.breaker.off() || h.breaker.cooldown != time.Minute {
		t.Fatalf("set policy: timeout %v, %d attempts, breaker off %v, cooldown %v", h.Timeout, h.attempts, h.breaker.off(), h.breaker.cooldown)
	}
}
