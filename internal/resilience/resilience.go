// Package resilience is the fault-tolerance layer threaded through every
// cross-service hop of the DVM: deadlines, retries with exponential
// backoff, and per-upstream circuit breakers.
//
// The paper moves VM services onto the network (§3), which makes a
// client's correctness and availability depend on remote verification,
// security, monitoring, and proxy servers that can stall, flap, or die.
// Every network hop in this repo therefore runs under one Policy and one
// Guard: a per-attempt deadline, bounded retries, and a circuit breaker
// that stops hammering (and stops waiting on) an upstream that is down.
// A service's hop to its upstream is a Hop; a cluster node's link to a
// peer is a Guard in the peer's membership entry.
//
// What happens *after* the hop fails is service-specific and lives with
// each service: verification and security fail closed (deny), monitoring
// and profiling fail open (drop and continue), the proxy serves stale
// cache entries (stale-if-error). See DESIGN.md "Failure semantics".
package resilience

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dvm/internal/telemetry"
)

// ErrOpen is returned by a breaker that is refusing calls. Callers map
// it to their degradation path (503 Retry-After on the proxy, deny on
// the security manager, drop on the monitor).
var ErrOpen = errors.New("resilience: circuit open")

// permanentError marks an error that retrying cannot fix (e.g. a 404
// from the origin): Do returns it immediately and the breaker does not
// count it as an upstream failure.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so retry loops stop and breakers ignore it.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// The settings no deployment sets. A policy's zero BreakerThreshold is
// DefaultThreshold; an open guard refuses calls for Cooldown, then lets
// one probe through. Retry n (1-based) waits backoffBase·2^(n-1), capped
// at backoffMax.
const (
	DefaultThreshold = 5
	Cooldown         = 5 * time.Second
	backoffBase      = 50 * time.Millisecond
	backoffMax       = 2 * time.Second
)

// Policy is what a deployment sets for the hops to one upstream: the
// class loader's to its proxy, the proxy's to its origin, the security
// manager's to its server and the console session's. NewHop fills its
// defaults.
type Policy struct {
	// Timeout bounds each attempt (0 = the service's default).
	Timeout time.Duration
	// Retries is the number of retries after a failed attempt (0 = one
	// attempt). A permanent error or an open breaker is never retried.
	Retries int
	// BreakerThreshold is the consecutive counted failures that open the
	// upstream's breaker (0 = DefaultThreshold, <0 = no breaker).
	BreakerThreshold int
}

// backoff returns the delay before retry attempt+1, attempt being the
// 1-based attempt that just failed.
func backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// BreakerState is the classic three-state circuit breaker state.
type BreakerState int32

const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// Guard is the closed → open → half-open rule, written once: a Breaker
// runs it under its own mutex, and a cluster member's entry runs it under
// the membership's. threshold consecutive counted failures open a closed
// guard; an open one refuses every call for cooldown, then admits one
// probe, whose success closes it and whose failure opens it again. The
// zero value is closed. A Guard holds no lock and reads no clock of its
// own: the owner serializes every call and passes its clock, which a
// closed guard never reads.
type Guard struct {
	state    BreakerState
	fails    int       // consecutive counted failures
	openedAt time.Time // when it last opened
	probing  bool      // the half-open probe is out
}

// State is the guard as the next call finds it: open turns half-open
// once cooldown has passed since it opened.
func (g *Guard) State(now func() time.Time, cooldown time.Duration) BreakerState {
	if g.state == Open && now().Sub(g.openedAt) >= cooldown {
		return HalfOpen
	}
	return g.state
}

// Allow asks for one call: nil admits it, and the caller settles it with
// exactly one Success, Failure or Cancel; ErrOpen refuses it.
func (g *Guard) Allow(now func() time.Time, cooldown time.Duration) error {
	if g.state == Closed {
		return nil
	}
	if g.state = g.State(now, cooldown); g.state == Open || g.probing {
		return ErrOpen
	}
	g.probing = true
	return nil
}

// Success settles a call the upstream answered: the failure count
// resets, and a probe closes the guard. It reports whether it closed.
func (g *Guard) Success() (closed bool) {
	g.fails = 0
	if g.state != HalfOpen {
		return false
	}
	g.state, g.probing = Closed, false
	return true
}

// Failure settles a counted failure: the threshold-th in a row opens a
// closed guard, and a failed probe opens it again at once. It reports
// whether the guard opened.
func (g *Guard) Failure(now func() time.Time, threshold int) (opened bool) {
	g.fails++
	if g.state != HalfOpen && (g.state != Closed || g.fails < threshold) {
		return false
	}
	g.state, g.openedAt, g.probing = Open, now(), false
	return true
}

// Cancel settles a call whose caller gave up before the upstream
// answered: it is no evidence either way, so the count stays as it is,
// and a probe hands its slot back for the next call to probe with.
// Without it an abandoned probe would hold the only slot and keep the
// guard refusing forever.
func (g *Guard) Cancel() { g.probing = false }

// Fails is the consecutive counted failures.
func (g *Guard) Fails() int { return g.fails }

// BreakerCounts is a snapshot of breaker statistics for /healthz and
// Stats surfaces.
type BreakerCounts struct {
	State     string
	Trips     int64 // closed/half-open -> open transitions
	Successes int64
	Failures  int64
}

// Breaker is a per-upstream circuit breaker: a Guard under a mutex, on
// the wall clock, with counts. A nil *Breaker admits every call.
type Breaker struct {
	// OpenDurations, when non-nil, observes how long each open episode
	// lasted, recorded when the breaker closes again. Outage-length
	// histograms merge across nodes like any other telemetry histogram.
	OpenDurations *telemetry.Histogram

	threshold int // <0: the breaker is off
	cooldown  time.Duration
	now       func() time.Time

	mu        sync.Mutex
	g         Guard
	trips     int64
	successes int64
	failures  int64
}

// NewBreaker returns a breaker on the clock now that opens after
// threshold consecutive counted failures (never, if threshold < 0) and
// probes after cooldown. NewHop builds every service's; tests build
// their own on a fake clock.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// off reports whether the breaker admits every call and counts nothing.
func (b *Breaker) off() bool { return b == nil || b.threshold < 0 }

// Allow reports whether a call may proceed now; ErrOpen means the
// upstream is presumed down. An allowed call MUST be followed by exactly
// one Success, Failure or Cancel.
func (b *Breaker) Allow() error {
	if b.off() {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.g.Allow(b.now, b.cooldown)
}

// Success records a successful call: half-open closes, consecutive
// failures reset.
func (b *Breaker) Success() {
	if b.off() {
		return
	}
	b.mu.Lock()
	b.successes++
	if b.g.Success() {
		b.OpenDurations.Observe(b.now().Sub(b.g.openedAt))
	}
	b.mu.Unlock()
}

// Failure records a failed call: a half-open probe failure re-opens
// immediately; Threshold consecutive closed-state failures trip open.
func (b *Breaker) Failure() {
	if b.off() {
		return
	}
	b.mu.Lock()
	b.failures++
	if b.g.Failure(b.now, b.threshold) {
		b.trips++
	}
	b.mu.Unlock()
}

// Cancel settles an allowed call whose caller gave up (Guard.Cancel).
func (b *Breaker) Cancel() {
	if b.off() {
		return
	}
	b.mu.Lock()
	b.g.Cancel()
	b.mu.Unlock()
}

// State returns the current state, applying the open->half-open
// transition lazily so observers see the same state a caller would.
func (b *Breaker) State() BreakerState {
	if b.off() {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.g.State(b.now, b.cooldown)
}

// Counts snapshots the breaker statistics.
func (b *Breaker) Counts() BreakerCounts {
	if b.off() {
		return BreakerCounts{State: Closed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerCounts{State: b.g.State(b.now, b.cooldown).String(), Trips: b.trips, Successes: b.successes, Failures: b.failures}
}

// Hop is the policy every cross-service call runs under: a per-attempt
// deadline, bounded retries with backoff, and the upstream's breaker.
// The zero value (no timeout, one attempt, no breaker) is a plain call.
type Hop struct {
	// Timeout bounds each attempt (0 = the caller's deadline only).
	Timeout time.Duration
	// Retries, when non-nil, counts every scheduled retry.
	Retries *telemetry.Counter

	attempts int
	breaker  *Breaker
}

// NewHop is the hop to one upstream under p, with a breaker of its own
// on the wall clock; it is the one place a policy's defaults are filled.
// A zero p.Timeout takes timeout, the service's default (0 = the
// caller's deadline only). The breaker probes after cooldown (0 =
// Cooldown; only tests pass another).
func NewHop(p Policy, timeout, cooldown time.Duration) Hop {
	return Hop{
		Timeout:  cmp.Or(p.Timeout, timeout),
		attempts: 1 + max(p.Retries, 0),
		breaker:  NewBreaker(cmp.Or(p.BreakerThreshold, DefaultThreshold), cmp.Or(cooldown, Cooldown), time.Now),
	}
}

// Breaker is the hop's breaker, shared by every copy of the hop.
func (h Hop) Breaker() *Breaker { return h.breaker }

// Do runs op under the hop policy. Each attempt gets its own deadline
// and its own breaker admission; ErrOpen and permanent errors stop the
// retry loop immediately. The parent ctx cancels everything.
func (h Hop) Do(ctx context.Context, op func(context.Context) error) error {
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = h.attempt(ctx, op)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrOpen) || IsPermanent(err) || attempt >= h.attempts {
			return err
		}
		h.Retries.Inc()
		t := time.NewTimer(backoff(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// attempt is one breaker-gated, deadline-bounded try.
func (h Hop) attempt(ctx context.Context, op func(context.Context) error) error {
	if err := h.breaker.Allow(); err != nil {
		return err
	}
	actx := ctx
	if h.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, h.Timeout)
		defer cancel()
	}
	err := op(actx)
	if err == nil {
		h.breaker.Success()
		return nil
	}
	// A permanent error (e.g. not-found) is an answer from the upstream,
	// not evidence it is down; don't count it against the breaker.
	if IsPermanent(err) {
		h.breaker.Success()
		return err
	}
	// A canceled parent context means the caller gave up (client
	// disconnect, abandoned coalesced flight) — that says nothing about
	// the upstream's health. Recording it as a failure would let a wave
	// of impatient clients trip the breaker and black out a healthy
	// origin, turning overload into an outage. Attempt-deadline expiry
	// (upstream too slow) still counts.
	if errors.Is(ctx.Err(), context.Canceled) {
		h.breaker.Cancel()
		return err
	}
	h.breaker.Failure()
	// Surface the attempt deadline as the canonical context error so
	// callers can map it (proxy: 504).
	if actx.Err() != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		err = fmt.Errorf("%w (%v)", actx.Err(), err)
	}
	return err
}
