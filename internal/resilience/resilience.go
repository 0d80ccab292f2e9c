// Package resilience is the fault-tolerance layer threaded through every
// cross-service hop of the DVM: deadlines, retries with exponential
// backoff and deterministic jitter, and per-upstream circuit breakers.
//
// The paper moves VM services onto the network (§3), which makes a
// client's correctness and availability depend on remote verification,
// security, monitoring, and proxy servers that can stall, flap, or die.
// Every network hop in this repo therefore goes through a Hop: a
// per-attempt deadline, a bounded retry policy, and a circuit breaker
// that stops hammering (and stops waiting on) an upstream that is down.
//
// What happens *after* the hop fails is service-specific and lives with
// each service: verification and security fail closed (deny), monitoring
// and profiling fail open (drop and continue), the proxy serves stale
// cache entries (stale-if-error). See DESIGN.md "Failure semantics".
package resilience

import (
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

// RetryPolicy is exponential backoff with deterministic jitter:
// attempt n (1-based) sleeps Base*2^(n-1), capped at Max, with up to
// Jitter fraction added. Jitter is derived from (Seed, attempt) by a
// splitmix hash, so a given policy replays identically — chaos tests
// must be reproducible run-to-run.
type RetryPolicy struct {
	// Attempts is the total number of tries (1 = no retry; 0 means 1).
	Attempts int
	// Base is the first backoff delay (default 50ms when retrying).
	Base time.Duration
	// Max caps a single backoff delay (default 2s).
	Max time.Duration
	// Jitter in [0,1] is the fraction of the delay randomized (default 0.2).
	Jitter float64
	// Seed makes the jitter sequence deterministic.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.2
	}
	return p
}

// Backoff returns the delay before retry attempt+1, attempt being the
// 1-based attempt that just failed. Pure: same inputs, same delay.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	p = p.withDefaults()
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.Max {
			d = p.Max
			break
		}
	}
	if d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 {
		// splitmix64 over (seed, attempt): deterministic, allocation-free.
		z := p.Seed + uint64(attempt)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		frac := float64(z>>11) / float64(1<<53) // uniform [0,1)
		d += time.Duration(frac * p.Jitter * float64(d))
	}
	return d
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

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker open (default 5; <0 disables the breaker entirely).
	Threshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through (default 5s).
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probes half-open admits
	// (default 1).
	HalfOpenProbes int
	// Now is a clock hook for deterministic tests (default time.Now).
	Now func() time.Time
	// OpenDurations, when non-nil, observes how long each open episode
	// lasted, recorded when the breaker closes again. Outage-length
	// histograms merge across nodes like any other telemetry histogram.
	OpenDurations *telemetry.Histogram
}

// BreakerCounts is a snapshot of breaker statistics for /healthz and
// Stats surfaces.
type BreakerCounts struct {
	State     string
	Trips     int64 // closed/half-open -> open transitions
	Successes int64
	Failures  int64
}

// Breaker is a per-upstream circuit breaker: Threshold consecutive
// failures open it; after Cooldown it admits HalfOpenProbes trial calls;
// a probe success closes it, a probe failure re-opens it.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probes      int // in-flight half-open probes

	trips     int64
	successes int64
	failures  int64
}

// NewBreaker builds a breaker; zero-value config gets defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold == 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// disabled reports whether the breaker is configured off (Threshold<0).
func (b *Breaker) disabled() bool { return b != nil && b.cfg.Threshold < 0 }

// Allow reports whether a call may proceed now; ErrOpen means the
// upstream is presumed down. An allowed call MUST be followed by exactly
// one Success, Failure or Cancel.
func (b *Breaker) Allow() error {
	if b == nil || b.disabled() {
		return nil
	}
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return nil
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return ErrOpen
		}
		b.state = HalfOpen
		b.probes = 1
		b.mu.Unlock()
		return nil
	default: // HalfOpen
		if b.probes >= b.cfg.HalfOpenProbes {
			b.mu.Unlock()
			return ErrOpen
		}
		b.probes++
		b.mu.Unlock()
		return nil
	}
}

// Success records a successful call: half-open closes, consecutive
// failures reset.
func (b *Breaker) Success() {
	if b == nil || b.disabled() {
		return
	}
	b.mu.Lock()
	b.successes++
	b.consecFails = 0
	if b.state == HalfOpen {
		b.state = Closed
		b.probes = 0
		if !b.openedAt.IsZero() {
			b.cfg.OpenDurations.Observe(b.cfg.Now().Sub(b.openedAt))
		}
	}
	b.mu.Unlock()
}

// Failure records a failed call: a half-open probe failure re-opens
// immediately; Threshold consecutive closed-state failures trip open.
func (b *Breaker) Failure() {
	if b == nil || b.disabled() {
		return
	}
	b.mu.Lock()
	b.failures++
	b.consecFails++
	switch b.state {
	case HalfOpen:
		b.trip()
	case Closed:
		if b.consecFails >= b.cfg.Threshold {
			b.trip()
		}
	}
	b.mu.Unlock()
}

// Cancel settles an allowed call whose caller gave up before the
// upstream answered: it is no evidence either way, so the counts stay as
// they are, and a half-open probe hands its slot back for the next call
// to probe with. Without it an abandoned probe would hold the only slot
// and keep the breaker refusing forever.
func (b *Breaker) Cancel() {
	if b == nil || b.disabled() {
		return
	}
	b.mu.Lock()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
	b.mu.Unlock()
}

// trip moves to Open (caller holds b.mu).
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.probes = 0
	b.trips++
}

// State returns the current state, applying the open->half-open
// transition lazily so observers see the same state a caller would.
func (b *Breaker) State() BreakerState {
	if b == nil || b.disabled() {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}

// Counts snapshots the breaker statistics.
func (b *Breaker) Counts() BreakerCounts {
	if b == nil || b.disabled() {
		return BreakerCounts{State: Closed.String()}
	}
	state := b.State().String()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerCounts{State: state, Trips: b.trips, Successes: b.successes, Failures: b.failures}
}

// Hop bundles the per-hop policy every cross-service call uses: a
// per-attempt deadline, a retry policy, and a shared per-upstream
// breaker. The zero value (no timeout, one attempt, nil breaker) is a
// plain call.
type Hop struct {
	// Timeout bounds each individual attempt (0 = caller's deadline only).
	Timeout time.Duration
	// Retry is the backoff policy across attempts.
	Retry RetryPolicy
	// Breaker, when non-nil, gates every attempt. It is shared by all
	// hops to the same upstream.
	Breaker *Breaker
	// OnRetry, when set, observes each scheduled retry (metrics).
	OnRetry func(attempt int, err error)
	// Retries, when non-nil, counts every scheduled retry.
	Retries *telemetry.Counter
}

// Do runs op under the hop policy. Each attempt gets its own deadline
// and its own breaker admission; ErrOpen and permanent errors stop the
// retry loop immediately. The parent ctx cancels everything.
func (h Hop) Do(ctx context.Context, op func(context.Context) error) error {
	retry := h.Retry.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = h.attempt(ctx, op)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrOpen) || IsPermanent(err) || attempt >= retry.Attempts {
			return err
		}
		h.Retries.Inc()
		if h.OnRetry != nil {
			h.OnRetry(attempt, err)
		}
		t := time.NewTimer(retry.Backoff(attempt))
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
	if err := h.Breaker.Allow(); err != nil {
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
		h.Breaker.Success()
		return nil
	}
	// A permanent error (e.g. not-found) is an answer from the upstream,
	// not evidence it is down; don't count it against the breaker.
	if IsPermanent(err) {
		h.Breaker.Success()
		return err
	}
	// A canceled parent context means the caller gave up (client
	// disconnect, abandoned coalesced flight) — that says nothing about
	// the upstream's health. Recording it as a failure would let a wave
	// of impatient clients trip the breaker and black out a healthy
	// origin, turning overload into an outage. Attempt-deadline expiry
	// (upstream too slow) still counts.
	if errors.Is(ctx.Err(), context.Canceled) {
		h.Breaker.Cancel()
		return err
	}
	h.Breaker.Failure()
	// Surface the attempt deadline as the canonical context error so
	// callers can map it (proxy: 504).
	if actx.Err() != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		err = fmt.Errorf("%w (%v)", actx.Err(), err)
	}
	return err
}
