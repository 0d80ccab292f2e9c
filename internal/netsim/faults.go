package netsim

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection: deterministic wrappers that make an origin or the
// hop's connections misbehave in the ways real networks do — errors,
// hangs, partial reads — so the chaos tests can prove each service's
// degradation semantics (proxy: stale-if-error; security: fail closed;
// monitoring: fail open) under -race with reproducible seeds.

// ErrInjected is the error returned by injected failures; chaos tests
// match on it to distinguish injected faults from real bugs.
var ErrInjected = errors.New("netsim: injected fault")

// FaultSpec describes a misbehavior profile. Rates are probabilities in
// [0,1] evaluated independently per call in order: error, hang,
// partial. All draws come from a splitmix PRNG seeded by Seed, so a
// given spec replays the same fault sequence run-to-run.
type FaultSpec struct {
	// Seed makes the fault sequence deterministic.
	Seed uint64
	// ErrorRate is the probability a call fails immediately.
	ErrorRate float64
	// HangRate is the probability a call hangs; it returns only when
	// the context is cancelled (or after HangFor, when set).
	HangRate float64
	// HangFor bounds an injected hang (0 = hang until ctx done).
	HangFor time.Duration
	// PartialRate is the probability a call returns truncated data with
	// an io.ErrUnexpectedEOF (origin) or an answer that ends mid-body
	// (transport).
	PartialRate float64
}

// FaultStats counts what a faulty wrapper actually injected.
type FaultStats struct {
	Calls    int64
	Errors   int64
	Hangs    int64
	Partials int64
}

// faultCore is the shared deterministic draw + counters.
type faultCore struct {
	spec FaultSpec

	mu  sync.Mutex
	rng splitmix

	calls    atomic.Int64
	errors   atomic.Int64
	hangs    atomic.Int64
	partials atomic.Int64
}

func newFaultCore(spec FaultSpec) *faultCore {
	return &faultCore{spec: spec, rng: splitmix{state: spec.Seed ^ 0xD1B54A32D192ED03}}
}

// draw returns the fault chosen for this call: "error", "hang",
// "partial", or "" for a clean pass-through.
func (c *faultCore) draw() string {
	c.calls.Add(1)
	c.mu.Lock()
	u := c.rng.float()
	c.mu.Unlock()
	switch {
	case u <= c.spec.ErrorRate:
		c.errors.Add(1)
		return "error"
	case u <= c.spec.ErrorRate+c.spec.HangRate:
		c.hangs.Add(1)
		return "hang"
	case u <= c.spec.ErrorRate+c.spec.HangRate+c.spec.PartialRate:
		c.partials.Add(1)
		return "partial"
	default:
		return ""
	}
}

// hang blocks until ctx is done or HangFor elapses.
func (c *faultCore) hang(ctx context.Context) {
	if c.spec.HangFor > 0 {
		t := time.NewTimer(c.spec.HangFor)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		return
	}
	<-ctx.Done()
}

// Stats snapshots the injected-fault counters.
func (c *faultCore) Stats() FaultStats {
	return FaultStats{
		Calls:    c.calls.Load(),
		Errors:   c.errors.Load(),
		Hangs:    c.hangs.Load(),
		Partials: c.partials.Load(),
	}
}

// originLike matches proxy.Origin structurally (netsim must not import
// the proxy package).
type originLike interface {
	Fetch(ctx context.Context, name string) ([]byte, error)
}

// FaultyOrigin wraps an origin with injected faults. It implements
// proxy.Origin.
type FaultyOrigin struct {
	*faultCore
	inner originLike
}

// NewFaultyOrigin wraps origin with the fault profile.
func NewFaultyOrigin(origin originLike, spec FaultSpec) *FaultyOrigin {
	return &FaultyOrigin{faultCore: newFaultCore(spec), inner: origin}
}

// Fetch implements the origin interface with injected misbehavior.
func (f *FaultyOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	switch f.draw() {
	case "error":
		return nil, fmt.Errorf("%w: fetch %s refused", ErrInjected, name)
	case "hang":
		f.hang(ctx)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: fetch %s stalled", ErrInjected, name)
	case "partial":
		b, err := f.inner.Fetch(ctx, name)
		if err != nil {
			return nil, err
		}
		return b[:len(b)/2], fmt.Errorf("%w: fetch %s: %v", ErrInjected, name, io.ErrUnexpectedEOF)
	default:
		return f.inner.Fetch(ctx, name)
	}
}

// FaultyTransport is a faulting dialer: the connections it dials play
// injected faults on the hop's exchanges. The hop writes each request in
// one Write, so a connection draws one fault per exchange, at that Write,
// and plays it as a network would:
//
//   - error: the connection is reset before any answer byte (a link cut
//     outright, ErrorRate 1, refuses the dial itself);
//   - hang: the request is lost, and reads block until the socket's
//     deadline — or, with HangFor set, fail once it has passed;
//   - partial: the answer ends (EOF) after its head and half its body.
type FaultyTransport struct {
	*faultCore
	dial Dialer
}

// Dialer is the hop's dial function (proxy.HopTransport.Dial).
type Dialer = func(ctx context.Context, network, addr string) (net.Conn, error)

// NewFaultyTransport builds a faulting dialer over dial (nil = a
// net.Dialer).
func NewFaultyTransport(dial Dialer, spec FaultSpec) *FaultyTransport {
	if dial == nil {
		dial = (&net.Dialer{}).DialContext
	}
	return &FaultyTransport{faultCore: newFaultCore(spec), dial: dial}
}

// Dial dials addr, unless the link is cut.
func (t *FaultyTransport) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	return faultyDial(ctx, t.dial, network, addr, func() *faultCore { return t.faultCore })
}

// faultyDial dials through dial a connection whose faults link draws: the
// link's profile when the connection writes (nil = a clean link).
func faultyDial(ctx context.Context, dial Dialer, network, addr string, link func() *faultCore) (net.Conn, error) {
	if c := link(); c != nil && c.spec.ErrorRate >= 1 {
		c.draw()
		return nil, fmt.Errorf("%w: dial %s refused", ErrInjected, addr)
	}
	conn, err := dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &faultyConn{Conn: conn, link: link}, nil
}

// faultyConn plays, on each exchange, the fault its link draws when the
// request is written.
type faultyConn struct {
	net.Conn
	link    func() *faultCore
	stalled atomic.Bool

	mu    sync.Mutex  // guards the rest: a client may read on one goroutine and write on another
	fault string      // the exchange's, drawn at its Write
	stall *time.Timer // ends a hang after HangFor
	head  []byte      // partial: the answer so far, until its head is whole
	seen  int         // partial: answer bytes passed on
	limit int         // partial: where the answer ends; -1 = not known yet
}

func (c *faultyConn) Write(p []byte) (int, error) {
	fault, core := "", c.link()
	if core != nil {
		fault = core.draw()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.fault = fault; fault {
	case "error":
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection reset", ErrInjected)
	case "hang":
		if d := core.spec.HangFor; d > 0 {
			c.stall = time.AfterFunc(d, func() {
				c.stalled.Store(true)
				_ = c.Conn.SetReadDeadline(time.Unix(1, 0))
			})
		}
		return len(p), nil // lost on the way
	case "partial":
		c.head, c.seen, c.limit = c.head[:0], 0, -1
	}
	return c.Conn.Write(p)
}

func (c *faultyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	ended := c.fault == "partial" && c.limit >= 0 && c.seen >= c.limit
	c.mu.Unlock()
	if ended {
		return 0, io.EOF
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.fault {
	case "hang":
		if err != nil && c.stalled.Load() {
			return n, fmt.Errorf("%w: exchange stalled", ErrInjected)
		}
	case "partial":
		if c.limit < 0 {
			c.head = append(c.head, p[:n]...)
			if i := bytes.Index(c.head, []byte("\r\n\r\n")); i >= 0 {
				c.limit = i + 4
				if resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(c.head[:i+4])), nil); err == nil && resp.ContentLength > 0 {
					c.limit += int(resp.ContentLength / 2)
				}
			}
		}
		if c.limit >= 0 && c.seen+n >= c.limit {
			n, err = c.limit-c.seen, io.EOF
		}
		c.seen += n
	}
	return n, err
}

func (c *faultyConn) Close() error {
	c.mu.Lock()
	if c.stall != nil {
		c.stall.Stop()
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// MapFetcher adapts an in-memory map to the origin interface without
// importing the proxy package (test helper for chaos suites that need a
// netsim-local origin).
type MapFetcher map[string][]byte

// Fetch implements the origin interface.
func (m MapFetcher) Fetch(_ context.Context, name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("netsim: %s not found", name)
	}
	return bytes.Clone(b), nil
}
