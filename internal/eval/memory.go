package eval

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/proxy"
)

// The Figure 10 memory model. The paper's proxy ran on a 64 MB server;
// past ~250 simultaneous connections it paged and throughput collapsed.
// A modern host does not, so the experiments simulate that server: each
// request is charged the memory a connection held, each fetched class
// is charged its parsed form, and a request that pushes the host past
// its budget sleeps for the paging it would have caused. The model is a
// decorator around the real request path and the real origin — the
// proxy itself knows nothing about it.

const (
	// connectionMemory is the modeled per-connection server memory
	// (socket buffers, HTTP state, worker stack) held for the lifetime of
	// a request, whether it leads a flight or waits on one.
	connectionMemory = 256 << 10
	// parsedFactor: the parsed form of a class is a few times its wire
	// size, held from the origin fetch until the request is answered.
	parsedFactor = 4
	// pagingPenaltyPerMB is the added delay per MiB of overshoot.
	// Thrashing is brutal once physical memory is oversubscribed: each
	// paged request is ~an order of magnitude slower, as the paper's
	// server exhibited.
	pagingPenaltyPerMB = 150 * time.Millisecond
)

// pagedHost is one proxy host's physical memory.
type pagedHost struct {
	budget int64
	inUse  atomic.Int64
}

// memLedger is what one request holds on its host. It rides the request
// context, which survives the flight's context.WithoutCancel, so the
// origin side (pagedOrigin) finds the ledger of the request that led
// the flight.
type memLedger struct {
	host *pagedHost

	mu       sync.Mutex
	held     int64
	released bool
}

type ledgerKey struct{}

// hold charges n more bytes to the request and returns the paging
// penalty the host's overshoot costs it.
func (l *memLedger) hold(n int64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return 0
	}
	l.held += n
	over := l.host.inUse.Add(n) - l.host.budget
	if over <= 0 {
		return 0
	}
	return time.Duration(float64(over) / (1 << 20) * float64(pagingPenaltyPerMB))
}

func (l *memLedger) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.host.inUse.Add(-l.held)
	l.released = true
}

// wrap puts one proxy's request path on this host: every request holds
// a connection's memory until it is answered. A zero budget disables
// the model.
func (h *pagedHost) wrap(next requestFunc) requestFunc {
	if h.budget <= 0 {
		return next
	}
	return func(ctx context.Context, l proxy.Lookup) (proxy.Result, error) {
		led := &memLedger{host: h}
		led.hold(connectionMemory)
		defer led.release()
		return next(context.WithValue(ctx, ledgerKey{}, led), l)
	}
}

// pagedOrigin charges each fetched class's parsed form to the request
// whose flight fetched it, and makes that flight pay the paging penalty
// before the pipeline runs. Fetches outside a modeled request (no
// ledger in ctx) pass through.
type pagedOrigin struct{ proxy.Origin }

func (o pagedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	raw, err := o.Origin.Fetch(ctx, name)
	if led, ok := ctx.Value(ledgerKey{}).(*memLedger); ok && err == nil {
		time.Sleep(led.hold(parsedFactor * int64(len(raw))))
	}
	return raw, err
}

// pagedReplicas gives each replica of g a host of its own (each replica
// brings its own RAM) and returns the group's round-robin entry point.
func pagedReplicas(g *proxy.ReplicaGroup, budget int64) requestFunc {
	if budget <= 0 {
		return g.Request
	}
	reqs := make([]requestFunc, g.Size())
	for i := range reqs {
		reqs[i] = (&pagedHost{budget: budget}).wrap(g.Replica(i).Request)
	}
	var next atomic.Uint64
	return func(ctx context.Context, l proxy.Lookup) (proxy.Result, error) {
		return reqs[next.Add(1)%uint64(len(reqs))](ctx, l)
	}
}
