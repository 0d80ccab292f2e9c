package proxy

// Admission control (overload management): the paper's Figure 10 shows
// the proxy saturating; this file makes saturation survivable. Past the
// service rate, requests no longer pile up in an unbounded queue until
// their deadlines kill them all — they wait in a *bounded* queue with
// per-client fair scheduling, and everything beyond the bound is shed
// deliberately, cheapest victims first:
//
//  1. Fresh cache hits are never queued — a lookup the cache can answer
//     is served no matter how overloaded the miss path is.
//  2. Coalesced followers are never queued either: they ride an already
//     admitted flight for the cost of a channel wait, so they are shed
//     last (only when their whole flight is shed).
//  3. A request holding a stale cache entry is served the stale bytes
//     instead of queueing a refetch once the queue is under pressure —
//     freshness degrades before anyone is turned away.
//  4. Peer-fill work (a cluster sibling asking this node as the ring
//     owner) is rejected before local client work: the sibling has its
//     own origin fallback, a local client does not. The rejection is a
//     429 the sibling converts into backpressure, not a peer failure.
//  5. Cold misses — the requests that would pay an origin fetch plus a
//     pipeline rewrite — are rejected when the queue is full, when the
//     client exceeds its fair share of queue slots, or when the
//     request's own deadline cannot cover the expected wait plus the
//     expected service time (measured from the live origin-fetch and
//     pipeline histograms): work that will be thrown away anyway is
//     cheapest to refuse at the door.
//
// The controller is deliberately scoped to the miss path: it bounds the
// number of flights doing origin+pipeline work (Config.MaxConcurrent)
// and the number waiting for a slot (Config.MaxQueue). Cache hits and
// flight followers bypass it entirely.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dvm/internal/telemetry"
)

// ErrOverloaded marks a request shed by admission control: the proxy is
// past saturation and chose to reject this request rather than queue it
// to death. The HTTP front end (and the cluster peer protocol) map it
// to 429 with a Retry-After hint. Like ErrNotFound it is a deliberate
// answer, not an outage: it never trips breakers and is not retried.
var ErrOverloaded = errors.New("proxy overloaded")

// Shed policies (Config.ShedPolicy).
const (
	// ShedPriority is the default: stale-serve before rejecting, shed
	// peer fills before local misses, per-client fair queue shares.
	ShedPriority = "priority"
	// ShedFIFO keeps the bounded queue and deadline checks but no
	// priority tricks: pure first-come-first-served with tail drop.
	ShedFIFO = "fifo"
)

// peerClientPrefix marks requests arriving over the cluster peer
// protocol; internal/cluster sets X-DVM-Client to "peer:<self>".
const peerClientPrefix = "peer:"

// admitOutcome is what acquire decided for one flight.
type admitOutcome int

const (
	// admitOK: a service slot is held; the caller must release() when
	// the flight's work is done.
	admitOK admitOutcome = iota
	// admitStale: the request was shed onto its stale cache entry —
	// serve the stale bytes, do not fetch.
	admitStale
	// admitShed: rejected (the returned error wraps ErrOverloaded) or
	// abandoned (the ctx expired while queued).
	admitShed
)

// waiter is one queued flight.
type waiter struct {
	client  string
	ready   chan struct{} // closed on grant
	granted bool          // guarded by admission.mu
}

// admission is the bounded queue + shedding engine. A nil *admission
// admits everything (MaxQueue 0).
type admission struct {
	limit    int           // concurrent service slots
	maxQueue int           // waiters bound
	deadline time.Duration // max time in queue (0 = bounded only by ctx)
	priority bool          // ShedPriority vs ShedFIFO
	svcTime  func() time.Duration

	mu        sync.Mutex
	inService int
	queued    int
	queues    map[string][]*waiter // per-client FIFO
	order     []string             // round-robin rotation of clients with waiters
	inOrder   map[string]bool

	cAdmitted     *telemetry.Counter
	cShedFull     *telemetry.Counter
	cShedDeadline *telemetry.Counter
	cShedFair     *telemetry.Counter
	cShedPeer     *telemetry.Counter
	cShedStale    *telemetry.Counter
	hWait         *telemetry.Histogram
}

// newAdmission wires the controller and its metrics into the proxy's
// registry. svcTime returns the live expected service time (mean origin
// fetch + mean pipeline run); requests counts all proxy requests (for
// the SLO-burn gauge).
func newAdmission(cfg Config, reg *telemetry.Registry, svcTime func() time.Duration, requests *telemetry.Counter) *admission {
	a := &admission{
		limit:    cfg.MaxConcurrent,
		maxQueue: cfg.MaxQueue,
		deadline: cfg.QueueDeadline,
		priority: cfg.ShedPolicy == "" || cfg.ShedPolicy == ShedPriority,
		svcTime:  svcTime,
		queues:   make(map[string][]*waiter),
		inOrder:  make(map[string]bool),

		cAdmitted:     reg.Counter("admitted_total"),
		cShedFull:     reg.Counter("shed_queue_full_total"),
		cShedDeadline: reg.Counter("shed_deadline_total"),
		cShedFair:     reg.Counter("shed_fair_share_total"),
		cShedPeer:     reg.Counter("shed_backpressure_total"),
		cShedStale:    reg.Counter("shed_stale_served_total"),
		hWait:         reg.Histogram("admission_wait_seconds", nil),
	}
	reg.Gauge("queue_depth", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.queued)
	})
	reg.Gauge("queue_limit", func() float64 { return float64(a.maxQueue) })
	reg.Gauge("in_service", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.inService)
	})
	reg.Gauge("in_service_limit", func() float64 { return float64(a.limit) })
	// SLO burn: the fraction of all requests deliberately shed. 0 means
	// every request got real service; climbing toward 1 means the error
	// budget is burning and callers should back off or scale out.
	reg.Gauge("slo_burn_ratio", func() float64 {
		total := requests.Load()
		if total == 0 {
			return 0
		}
		return float64(a.shedTotal()) / float64(total)
	})
	return a
}

// shedTotal sums the rejection counters (not stale-serves: those
// requests were answered).
func (a *admission) shedTotal() int64 {
	return a.cShedFull.Load() + a.cShedDeadline.Load() + a.cShedFair.Load() + a.cShedPeer.Load()
}

// pressured reports whether the queue is at least half full (the
// stale-serve threshold). Nil-safe: no admission control, no pressure.
func (a *admission) pressured() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxQueue > 0 && a.queued*2 >= a.maxQueue
}

// acquire decides one flight's fate: a service slot (admitOK — caller
// must release()), a stale answer (admitStale), or a shed (admitShed
// with the reason). budget is the requester's remaining deadline budget
// (<0 = none). haveStale reports whether a stale cache entry could
// answer this request. Blocks (bounded by deadline and ctx) while the
// queue drains.
func (a *admission) acquire(ctx ctxDone, client string, haveStale bool, budget time.Duration) (admitOutcome, error) {
	if a == nil {
		return admitOK, nil
	}
	a.mu.Lock()
	if a.inService < a.limit && a.queued == 0 {
		a.inService++
		a.cAdmitted.Inc()
		a.mu.Unlock()
		return admitOK, nil
	}

	// The request must wait; decide whether it should be shed instead.
	full := a.queued >= a.maxQueue
	pressured := a.queued*2 >= a.maxQueue
	if a.priority && haveStale && pressured {
		// Serve the stale copy instead of queueing a refetch: under
		// pressure, freshness degrades before availability.
		a.cShedStale.Inc()
		a.mu.Unlock()
		return admitStale, nil
	}
	if full {
		a.cShedFull.Inc()
		a.mu.Unlock()
		return admitShed, fmt.Errorf("proxy: admission queue full (%d waiting): %w", a.maxQueue, ErrOverloaded)
	}
	if a.priority && strings.HasPrefix(client, peerClientPrefix) && a.queued*4 >= a.maxQueue*3 {
		// A cluster sibling asking us as the ring owner has its own
		// origin fallback; shed it before any local client.
		a.cShedPeer.Inc()
		a.mu.Unlock()
		return admitShed, fmt.Errorf("proxy: peer fill shed under load: %w", ErrOverloaded)
	}
	if a.priority {
		active := len(a.queues)
		if _, ok := a.queues[client]; !ok {
			active++
		}
		share := a.maxQueue / active
		if share < 1 {
			share = 1
		}
		if len(a.queues[client]) >= share {
			a.cShedFair.Inc()
			a.mu.Unlock()
			return admitShed, fmt.Errorf("proxy: client %q over its fair queue share (%d): %w", client, share, ErrOverloaded)
		}
	}
	// Deadline-aware drop: if the expected wait plus the expected
	// service time (live histogram means) cannot fit the requester's
	// remaining budget, the work would be thrown away — refuse it now.
	if svc := a.svcTime(); svc > 0 && budget >= 0 {
		expect := svc + svc*time.Duration(a.queued)/time.Duration(a.limit)
		if expect > budget {
			if a.priority && haveStale {
				a.cShedStale.Inc()
				a.mu.Unlock()
				return admitStale, nil
			}
			a.cShedDeadline.Inc()
			a.mu.Unlock()
			return admitShed, fmt.Errorf("proxy: expected wait %v exceeds request budget %v: %w", expect, budget, ErrOverloaded)
		}
	}

	w := &waiter{client: client, ready: make(chan struct{})}
	a.queues[client] = append(a.queues[client], w)
	a.queued++
	if !a.inOrder[client] {
		a.order = append(a.order, client)
		a.inOrder[client] = true
	}
	a.mu.Unlock()

	var timeout <-chan time.Time
	if a.deadline > 0 {
		t := time.NewTimer(a.deadline)
		defer t.Stop()
		timeout = t.C
	}
	wait := telemetry.StartTimer()
	select {
	case <-w.ready:
		a.hWait.Observe(wait.Elapsed())
		return admitOK, nil
	case <-ctx.Done():
	case <-timeout:
	}
	a.mu.Lock()
	if w.granted {
		// Raced with a grant: the slot is already ours, use it.
		a.mu.Unlock()
		a.hWait.Observe(wait.Elapsed())
		return admitOK, nil
	}
	a.removeLocked(w)
	a.mu.Unlock()
	a.hWait.Observe(wait.Elapsed())
	if err := ctx.Err(); err != nil {
		// Every waiter on this flight left; not a shed, an abandonment.
		return admitShed, err
	}
	if a.priority && haveStale {
		a.cShedStale.Inc()
		return admitStale, nil
	}
	a.cShedDeadline.Inc()
	return admitShed, fmt.Errorf("proxy: queued longer than %v: %w", a.deadline, ErrOverloaded)
}

// release returns a service slot and hands it to the next waiter in
// round-robin-over-clients order.
func (a *admission) release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.inService--
	a.grantLocked()
	a.mu.Unlock()
}

// grantLocked fills free service slots from the queue, one client at a
// time in rotation — a backlogged client cannot starve the others.
func (a *admission) grantLocked() {
	for a.inService < a.limit {
		w := a.popLocked()
		if w == nil {
			return
		}
		w.granted = true
		a.inService++
		a.cAdmitted.Inc()
		close(w.ready)
	}
}

// popLocked removes and returns the next waiter in client rotation.
func (a *admission) popLocked() *waiter {
	for len(a.order) > 0 {
		c := a.order[0]
		a.order = a.order[1:]
		q := a.queues[c]
		if len(q) == 0 {
			delete(a.queues, c)
			delete(a.inOrder, c)
			continue
		}
		w := q[0]
		if len(q) == 1 {
			delete(a.queues, c)
			delete(a.inOrder, c)
		} else {
			a.queues[c] = q[1:]
			a.order = append(a.order, c)
		}
		a.queued--
		return w
	}
	return nil
}

// removeLocked takes an abandoned waiter out of its client queue.
func (a *admission) removeLocked(w *waiter) {
	q := a.queues[w.client]
	for i, x := range q {
		if x == w {
			a.queues[w.client] = append(q[:i:i], q[i+1:]...)
			a.queued--
			break
		}
	}
	if len(a.queues[w.client]) == 0 {
		delete(a.queues, w.client)
	}
}

// ctxDone is the slice of context.Context acquire needs; it keeps the
// queue engine independently testable.
type ctxDone interface {
	Done() <-chan struct{}
	Err() error
}
