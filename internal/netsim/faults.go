package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection: deterministic wrappers that make an origin or an
// HTTP transport misbehave in the ways real networks do — errors,
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
	// an io.ErrUnexpectedEOF (origin) or a mid-body read error
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

// FaultyTransport wraps an http.RoundTripper with injected faults. Use
// it as the Transport of a client's http.Client to make any HTTP hop
// (proxy, security server, monitoring console) misbehave.
type FaultyTransport struct {
	*faultCore
	inner http.RoundTripper
}

// NewFaultyTransport wraps base (nil = http.DefaultTransport).
func NewFaultyTransport(base http.RoundTripper, spec FaultSpec) *FaultyTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FaultyTransport{faultCore: newFaultCore(spec), inner: base}
}

// RoundTrip implements http.RoundTripper. A request it fails itself has
// its body closed, as the contract asks: a caller may reuse a body only
// after its Close.
func (t *FaultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.draw() {
	case "error":
		closeBody(req)
		return nil, fmt.Errorf("%w: %s %s refused", ErrInjected, req.Method, req.URL)
	case "hang":
		closeBody(req)
		t.hang(req.Context())
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s %s stalled", ErrInjected, req.Method, req.URL)
	case "partial":
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{inner: resp.Body, remaining: resp.ContentLength / 2}
		return resp, nil
	default:
		return t.inner.RoundTrip(req)
	}
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// truncatedBody yields roughly half the response and then fails the
// read, simulating a connection torn mid-transfer.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w: %v", ErrInjected, io.ErrUnexpectedEOF)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		return n, err
	}
	if b.remaining <= 0 && err == nil {
		err = fmt.Errorf("%w: %v", ErrInjected, io.ErrUnexpectedEOF)
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

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
