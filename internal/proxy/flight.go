package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/attest"
	"dvm/internal/resilience"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
	"dvm/internal/verifier"
)

// flight is one in-progress miss that concurrent requests for the same
// key share. Its work runs on a worker goroutine under the flight itself,
// a context detached from the clients': the client that happened to
// arrive first can disconnect without failing everyone else on the
// flight, and the work is canceled only when the last waiter leaves.
type flight struct {
	parent context.Context // the first request's: its values, not its end
	done   chan struct{}   // closed (cancel) when the worker finishes, or on last leave
	hookMu sync.Mutex
	hooks  *cancelHook // what cancel runs

	// waiters counts the requests awaiting this flight (guarded by
	// Proxy.flightMu). When it reaches zero before done, nobody wants
	// the result anymore and the worker is canceled. Those still waiting
	// when the flight finishes (finished, also guarded by flightMu) are
	// the holders of its result.
	waiters  int
	finished bool

	// buf, when set, is the recycled buffer art.Data lives in: the store
	// does not keep art. holds counts the holders that have not yet given
	// their hold back (Result.Release, or leaveFlight after finishing);
	// the last one returns buf to the pool.
	buf   *[]byte
	holds atomic.Int32

	// Results, published before done is closed.
	art       *Artifact
	stale     bool   // art is past its TTL (stale-if-error, or shed onto the stale copy)
	shed      bool   // admission control shed this flight (stale or rejected)
	peer      string // cluster node that filled the miss, if any
	peerErr   string // failed peer-fill attempt that fell back to origin
	fetchErr  string // origin failure behind a stale-if-error response
	proxyTime time.Duration
	err       error
}

// resolved is one source's answer to a miss.
type resolved struct {
	art *Artifact
	// buf, when set, is the recycled buffer art.Data lives in (a peer
	// fill's answer frame, or output transformed while caching is off).
	buf *[]byte
	// payload is what a fleet variant re-derives art from: the origin
	// bytes. Unused for a peer fill, which arrives sealed.
	payload []byte
	// retain puts art in the store: always for an artifact produced
	// here, only for hot keys when a peer filled it.
	retain bool
}

// runFlight is the miss path, run by one worker goroutine per flight
// under the flight: disk probe, admit, resolve, seal, publish. The result
// is left in f for the waiters, who emit their own per-request counters
// and audit records. f is canceled only when every waiter has left
// (leaveFlight), or once the work is over.
func (p *Proxy) runFlight(f *flight, tr *telemetry.Trace, key string, l Lookup, stale *Artifact, budget time.Duration) {
	var ctx context.Context = f
	defer func() {
		// Unpublish before waking the waiters so a new request finds
		// either the cached entry or no flight at all; leaveFlight may
		// already have removed an abandoned flight. Every waiter still
		// here holds the result from now on, and so does the worker until
		// it lets go below: with no waiter left, that recycles the bytes.
		p.flightMu.Lock()
		if p.flights[key] == f {
			delete(p.flights, key)
		}
		f.finished = true
		f.holds.Store(int32(f.waiters) + 1)
		p.flightMu.Unlock()
		f.drop()
		f.cancel()
	}()

	// The disk tier is probed here, by the leader alone, so N coalescing
	// followers cost one file read. A stale disk entry is kept solely as
	// the stale-if-error fallback, so it still gets revalidated.
	if stale == nil && p.cfg.CacheEnabled {
		art, fresh := p.store.load(key)
		if fresh {
			f.art = art
			return
		}
		stale = art
	}
	if !p.admit(ctx, tr, f, key, l.Client, stale, budget) {
		return
	}
	defer p.adm.release()

	r, err := p.resolve(ctx, tr, f, key, l, stale)
	if r.art == nil {
		if err != nil {
			p.flightError(f, err)
		}
		return // failed, or answered from the stale copy
	}
	local := r.art.Source != ReasonFill // produced on this node
	if local {
		if err := p.seal(ctx, tr, r); err != nil {
			if r.buf != nil {
				PutBuffer(r.buf)
			}
			p.flightError(f, err)
			return
		}
	}
	if r.retain && p.cfg.CacheEnabled {
		if r.buf != nil {
			// A hot key's fill is kept: an exact-size copy, so the store
			// never pins a recycled frame.
			r.art.Data = bytes.Clone(r.art.Data)
			PutBuffer(r.buf)
			r.buf = nil
		}
		p.store.put(r.art)
	}
	f.art, f.buf = r.art, r.buf
}

// A flight is a context: no deadline, the first request's values but its
// cancellation (a value that is a context, as context.WithoutCancel hides
// it), ended by cancel, which runs its hooks. A hop under the flight hooks
// its connection's cut (hopConn.cut), allocating nothing; a context
// derived from it hooks through AfterFunc, or would watch it on a goroutine.
type cancelHook struct {
	fn   func()
	next *cancelHook
}

func (f *flight) Deadline() (time.Time, bool) { return time.Time{}, false }
func (f *flight) Done() <-chan struct{}       { return f.done }

func (f *flight) Err() error {
	select {
	case <-f.done:
		return context.Canceled
	default:
		return nil
	}
}

func (f *flight) Value(key any) any {
	v := f.parent.Value(key)
	if _, ctx := v.(context.Context); ctx {
		return nil
	}
	return v
}

func (f *flight) AfterFunc(fn func()) (stop func() bool) {
	h := &cancelHook{fn: fn}
	if !f.hook(h) {
		go fn() // as context.AfterFunc does: its caller may hold a lock fn takes
	}
	return func() bool { return f.unhook(h) }
}

// hook adds h to what cancel runs, unless f has ended (false); unhook
// takes it off, unless cancel has taken it (false).
func (f *flight) hook(h *cancelHook) bool {
	f.hookMu.Lock()
	defer f.hookMu.Unlock()
	live := f.Err() == nil
	if live {
		h.next, f.hooks = f.hooks, h
	}
	return live
}

func (f *flight) unhook(h *cancelHook) bool {
	f.hookMu.Lock()
	defer f.hookMu.Unlock()
	for p := &f.hooks; *p != nil; p = &(*p).next {
		if *p == h {
			*p = h.next
			return true
		}
	}
	return false
}

// cancel ends f, once, and runs its hooks. A hook that ran is never
// hooked again (its hop drops the connection), so its next stays put.
func (f *flight) cancel() {
	f.hookMu.Lock()
	hooks := f.hooks
	if f.hooks = nil; f.Err() == nil {
		close(f.done)
	}
	f.hookMu.Unlock()
	for ; hooks != nil; hooks = hooks.next {
		hooks.fn()
	}
}

// drop gives back one hold on a finished flight's result; the last one
// returns the buffer its bytes live in to the pool.
func (f *flight) drop() {
	if f.buf != nil && f.holds.Add(-1) == 0 {
		PutBuffer(f.buf)
	}
}

// admit takes the flight through admission control: a flight is one
// unit of origin+pipeline work; cache hits and followers never reach
// this point. The controller may grant a slot (true — the caller
// releases it), shed the flight onto its stale copy, or reject it.
func (p *Proxy) admit(ctx context.Context, tr *telemetry.Trace, f *flight, key, client string, stale *Artifact, budget time.Duration) bool {
	if p.adm == nil {
		return true
	}
	wspan := tr.StartSpan(p.cfg.Node, "admission.wait")
	outcome, err := p.adm.acquire(ctx, client, stale != nil, budget)
	wspan.End()
	switch outcome {
	case admitStale:
		p.serveStale(f, key, stale)
		f.shed = true
	case admitShed:
		if errors.Is(err, ErrOverloaded) {
			f.err, f.shed = err, true
		} else {
			p.flightError(f, err) // ctx expired while queued: every waiter left
		}
	}
	return outcome == admitOK
}

// serveStale answers the flight from the expired copy: freshness
// degrades, availability does not.
func (p *Proxy) serveStale(f *flight, key string, stale *Artifact) {
	f.art, f.stale = stale, true
	p.store.touch(key)
}

// resolve asks the fleet, then the origin; the first to return an
// artifact or an error answers. Each records what the waiters' audit
// records need (peer, timings) in the flight. When they fail and a stale
// copy exists, the stale copy answers instead (stale-if-error) — unless
// the origin said the class does not exist, which is a definitive
// answer, not an outage. A zero result with a nil error means f is
// already answered.
func (p *Proxy) resolve(ctx context.Context, tr *telemetry.Trace, f *flight, key string, l Lookup, stale *Artifact) (resolved, error) {
	r, err := p.fromPeer(ctx, tr, f, l)
	if r.art == nil && err == nil {
		r, err = p.fromOrigin(ctx, tr, f, l)
	}
	if err != nil && stale != nil && !errors.Is(err, ErrNotFound) {
		p.serveStale(f, key, stale)
		f.fetchErr = err.Error()
		return resolved{}, nil
	}
	return r, err
}

// fromPeer asks the fleet: a peer-served miss skips both the origin
// fetch and the pipeline run — the key's owner already paid for them
// once on behalf of everyone. A failed owner chain falls through to the
// origin: sharing is lost for this key, availability is not.
func (p *Proxy) fromPeer(ctx context.Context, tr *telemetry.Trace, f *flight, l Lookup) (resolved, error) {
	if p.cfg.Fleet == nil {
		return resolved{}, nil
	}
	fill := tr.StartSpan(p.cfg.Node, "peer.fill")
	res := p.cfg.Fleet.Fill(ctx, l)
	fill.End()
	switch {
	case res.Art != nil:
		p.m.PeerFetches.Inc()
		p.m.PeerHits.Inc()
		f.stale, f.peer = res.Stale, res.Peer
	case res.Err != nil:
		p.m.PeerFetches.Inc()
		f.peerErr = res.Err.Error()
	default:
		p.m.OwnerFetches.Inc()
	}
	return resolved{art: res.Art, buf: res.Frame, retain: res.CacheLocal}, nil
}

// fromOrigin is the paper's path: fetch the original bytes (deadline,
// retry, breaker) and run the static service pipeline over them.
func (p *Proxy) fromOrigin(ctx context.Context, tr *telemetry.Trace, f *flight, l Lookup) (resolved, error) {
	p.m.OriginFetches.Inc()
	fetch := tr.StartSpan(p.cfg.Node, "origin.fetch")
	var raw []byte
	err := p.hop.Do(ctx, func(actx context.Context) error {
		b, ferr := p.origin.Fetch(actx, l.Class)
		if errors.Is(ferr, ErrNotFound) {
			// A definitive answer, not an outage: no retry, no breaker
			// penalty, no stale fallback.
			return resilience.Permanent(ferr)
		}
		raw = b
		return ferr
	})
	p.m.OriginFetch.Observe(fetch.End())
	if err != nil {
		return resolved{}, err
	}
	p.m.BytesIn.Add(int64(len(raw)))

	// Output the store will not keep is transformed into a recycled
	// buffer: it dies with the responses that carry it.
	var buf *[]byte
	var dst []byte
	if !p.cfg.CacheEnabled {
		buf = GetBuffer()
		dst = (*buf)[:0]
	}
	pipe := tr.StartSpan(p.cfg.Node, "pipeline")
	out, rejected, err := p.transform(dst, tr, l, raw)
	f.proxyTime = pipe.End()
	p.m.Pipeline.Observe(f.proxyTime)
	if buf != nil {
		if err != nil || rejected {
			PutBuffer(buf) // a replacement class is built elsewhere
			buf = nil
		} else {
			*buf = out
		}
	}
	switch {
	case err != nil:
		return resolved{}, err
	case rejected:
		p.m.Rejections.Inc()
	}
	art := &Artifact{Arch: l.Arch, Class: l.Class, Data: out, Rejected: rejected, Source: SourceOrigin}
	return resolved{art: art, buf: buf, payload: raw, retain: true}, nil
}

// transform runs the pipeline over raw origin bytes. A verification (or
// other service) rejection becomes a replacement class that raises
// VerifyError on the client; a deterministic pipeline produces a
// deterministic rejection, so replacements attest like any other
// artifact. The output is appended to dst.
func (p *Proxy) transform(dst []byte, tr *telemetry.Trace, l Lookup, raw []byte) (out []byte, rejected bool, err error) {
	rctx := rewrite.TakeContext()
	defer rctx.Recycle()
	rctx.ClientID = l.Client
	rctx.ClientArch = l.Arch
	rctx.Trace = tr
	rctx.Node = p.cfg.Node
	out, perr := p.cfg.Pipeline.ProcessAppend(dst, raw, rctx)
	if perr == nil {
		return out, false, nil
	}
	out, rerr := verifier.MakeErrorClass(l.Class, perr.Error())
	if rerr != nil {
		return nil, true, fmt.Errorf("proxy: building replacement for %s: %v (original error: %w)", l.Class, rerr, perr)
	}
	return out, true, nil
}

// seal has the fleet cross-check an artifact produced here before it is
// cached or served. A seal error fails the flight — divergence means
// these bytes cannot be trusted, and no client may see them.
func (p *Proxy) seal(ctx context.Context, tr *telemetry.Trace, r resolved) error {
	if p.cfg.Fleet == nil {
		return nil
	}
	span := tr.StartSpan(p.cfg.Node, "attest.quorum")
	att, err := p.cfg.Fleet.Seal(ctx, r.art, r.payload)
	switch {
	case err != nil:
		p.m.Attest.Observe(span.End())
		p.m.AttestFailures.Inc()
		return fmt.Errorf("proxy: attesting %s (attest.quorum): %w", r.art.Class, err)
	case att != nil:
		p.m.Attest.Observe(span.End())
		p.m.Attested.Inc()
		r.art.Att = att
	}
	return nil
}

// flightError records a failed flight. A flight canceled because every
// waiter already disconnected is an abandonment, not an origin failure:
// nobody was refused service, so it gets its own counter instead of
// inflating fetch_errors_total.
func (p *Proxy) flightError(f *flight, err error) {
	f.err = err
	p.flightMu.Lock()
	abandoned := f.waiters == 0
	p.flightMu.Unlock()
	if abandoned && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		p.m.FlightsAbandoned.Inc()
		return
	}
	p.m.FetchErrors.Inc()
}

// Derive re-derives the artifact for (arch, class) from the origin bytes
// in payload and reports whether it is a rejection replacement: the
// variant half of a seal round. It touches neither the cache nor the
// origin; the dispatching owner supplies the payload, so a corrupt
// pipeline (or memory) on either side shows up as divergence. The output
// is appended to dst (a recycled buffer).
func (p *Proxy) Derive(ctx context.Context, dst []byte, arch, class string, payload []byte) (out []byte, rejected bool, err error) {
	return p.transform(dst, telemetry.FromContext(ctx), Lookup{Arch: arch, Class: class}, payload)
}

// TransformDigest is the digest of Derive's output, encoded into
// a recycled buffer and dropped once hashed.
func (p *Proxy) TransformDigest(ctx context.Context, arch, class string, raw []byte) (attest.Sum, error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	out, _, err := p.Derive(ctx, (*buf)[:0], arch, class, raw)
	if err != nil {
		return attest.Sum{}, err
	}
	*buf = out
	return attest.Digest(out), nil
}
