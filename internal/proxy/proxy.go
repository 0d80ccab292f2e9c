// Package proxy implements the DVM's service proxy (paper §3): a
// transparent interceptor on the path between clients and code origins.
// It fetches requested classes, parses them once, runs the static
// service pipeline (verifier, security, auditor, optimizer, compiler)
// over the in-memory form, re-serializes, caches the result, and serves
// it — generating an audit trail for the remote administration console.
//
// "The proxy uses a cache to avoid rewriting code shared between
// clients"; rejected classes are replaced with a VerifyError-raising
// stand-in so failures surface through the normal Java exception
// mechanism on the client (§3.1).
//
// Three seams carry everything else. Everything the proxy holds or
// moves is an *Artifact (artifact.go): the bytes with their seal and
// their rejection flag. Everything it keeps lives in the store
// (store.go): a byte-budgeted memory LRU in front of an optional disk
// directory. And a miss is one flight (flight.go), admit → resolve →
// seal → publish: simultaneous misses for one (arch, class) coalesce
// onto it — one leader does the work, followers wait and share the
// result, still counting as requests with their own audit records.
// resolve asks an ordered list of sources: the fleet (Config.Fleet —
// the key's ring owner already holds the transformed bytes), the AOT
// derivation from a cached base artifact, the origin plus the pipeline.
// What a source produced on this node is sealed by the fleet and
// published to the store and the key's replicas exactly once.
//
// Failure semantics: the origin hop carries a per-attempt deadline, a
// retry policy with backoff+jitter, and a circuit breaker
// (internal/resilience). When the origin is down the proxy *fails
// open with stale data*: a cached entry past its TTL is normally
// revalidated, but if the revalidating fetch fails the stale bytes are
// served (stale-if-error, counted in Stats.StaleServed) — an
// unreachable origin degrades freshness, never availability, matching
// the paper's split between trust-critical and auxiliary services. A
// peer outage likewise degrades sharing, never availability: the next
// source answers. Past saturation, admission control (admission.go)
// sheds deliberately instead of queueing to death.
//
// Telemetry: a request whose caller attached a telemetry.Trace to the
// ctx records a span per stage on it, so the caller gets a latency
// breakdown even across peer hops; an untraced request records none.
// All counters and latency histograms live in a telemetry.Registry
// served on /metrics and /healthz, fed from the stage timers whether or
// not the request is traced; Stats is a snapshot view of it.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dvm/internal/attest"
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/compiler"
	"dvm/internal/monitor"
	"dvm/internal/resilience"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/telemetry"
	"dvm/internal/verifier"
)

// ErrNotFound marks an origin's definitive "no such class" answer.
// Unlike a timeout or connection error it is not evidence the origin is
// down: it is never retried, never trips the breaker, and never falls
// back to stale cache. The HTTP front end maps it to 404.
var ErrNotFound = errors.New("class not found")

// Origin supplies original (untransformed) class bytes, e.g. a web
// server on the open Internet. Fetch must honor ctx cancellation: a
// hung origin is abandoned when the per-hop deadline expires.
type Origin interface {
	Fetch(ctx context.Context, name string) ([]byte, error)
}

// MapOrigin serves classes from memory.
type MapOrigin map[string][]byte

// Fetch implements Origin.
func (m MapOrigin) Fetch(_ context.Context, name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("origin: %s: %w", name, ErrNotFound)
	}
	return b, nil
}

// DelayedOrigin wraps an origin with a per-fetch delay callback (the
// synthetic Internet).
type DelayedOrigin struct {
	Origin
	// Delay is invoked before each fetch with the class name; it may
	// sleep (scaled) or advance a simulated clock.
	Delay func(name string)
}

// Fetch implements Origin.
func (d DelayedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	if d.Delay != nil {
		d.Delay(name)
	}
	return d.Origin.Fetch(ctx, name)
}

// RequestRecord is one entry of the proxy's audit trail: who asked for
// what, how it was served, and what the flight behind it went through.
// The administration console must see failed and degraded requests too.
type RequestRecord struct {
	Lookup
	RequestInfo
	Bytes int
	// PeerError records a failed peer-fill attempt that fell back to a
	// local origin fetch (the owner was down or unreachable).
	PeerError string
	// FetchError is why the request failed, or — with Stale set, when
	// bytes were still served — why the origin could not revalidate.
	FetchError string
	Duration   time.Duration
	ProxyTime  time.Duration // time spent parsing/transforming (excludes origin fetch)
}

// Config parameterizes a proxy.
type Config struct {
	// Node names this proxy in trace spans and health reports — a peer
	// URL in a cluster, "proxy" by default.
	Node string
	// Pipeline is the static service pipeline applied to every class.
	Pipeline *rewrite.Pipeline
	// CacheEnabled turns on the shared result cache.
	CacheEnabled bool
	// CacheBudget bounds cached bytes (0 = unlimited).
	CacheBudget int
	// CacheTTL is how long a cached entry is considered fresh
	// (0 = forever). An expired entry is revalidated by refetching; if
	// the origin is unreachable the stale bytes are served instead
	// (stale-if-error).
	CacheTTL time.Duration
	// DiskCacheDir, when set, backs the memory cache with files so a
	// restarted proxy recovers its transformed classes ("served from an
	// on-disk cache on the proxy", §4.1.2). Requires CacheEnabled.
	DiskCacheDir string

	// FetchTimeout bounds each origin fetch attempt (0 = no per-attempt
	// deadline; the caller's ctx still applies).
	FetchTimeout time.Duration
	// FetchRetries is the number of retries after the first failed fetch
	// attempt (0 = no retries). Not-found answers are never retried.
	FetchRetries int
	// BreakerThreshold is the number of consecutive origin failures that
	// trips the origin circuit breaker (0 = default 5, <0 = disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe (default 5s).
	BreakerCooldown time.Duration

	// Fleet is the cluster this proxy is a member of (nil = standalone).
	// See the Fleet interface.
	Fleet Fleet

	// MaxQueue bounds how many miss requests may wait for a service
	// slot before new ones are shed (429). 0 disables admission control
	// entirely: today's unbounded behavior. See admission.go for the
	// shed ordering: stale-serve before rejecting, peer fills before
	// local misses, per-client fair shares.
	MaxQueue int
	// MaxConcurrent bounds the flights doing origin-fetch + pipeline
	// work at once when admission control is enabled (default
	// 8×GOMAXPROCS). Cache hits and coalesced followers do not count
	// against it.
	MaxConcurrent int
	// QueueDeadline bounds how long a flight may wait for a service
	// slot before it is shed (default 1s when admission is enabled).
	QueueDeadline time.Duration

	// AOTBaseArch, when set, turns the compiler's output into a shared
	// derived artifact: a miss for compiler.ArchDVM whose AOTBaseArch
	// artifact (the pipeline output without the compile step, e.g.
	// "jvm") is resident is answered by compiler.CompileArtifact over
	// those bytes — no origin fetch, no pipeline run. Every filter ahead
	// of the compiler is architecture-independent, so the result is
	// byte-identical to the full pipeline's, and it caches, replicates
	// and seals (SealCompile) like any other artifact. Ignored unless the
	// pipeline's last filter is the compiler: a derived key would
	// otherwise have two byte forms.
	AOTBaseArch string

	// OnAudit receives the audit trail (central administration console).
	OnAudit func(RequestRecord)
}

// Lookup names what a request wants and for whom. It is the single
// argument of Request; the cluster, the HTTP front end, the bench
// drivers, and the examples all build one.
type Lookup struct {
	// Client identifies the requesting client (audit trail).
	Client string
	// Arch is the client's architecture (cache partitioning: the
	// compiler service specializes output per arch).
	Arch string
	// Class is the fully qualified class name.
	Class string
}

// Result is everything a request produced: the transformed bytes, the
// serving flags, and the request's cross-hop trace.
type Result struct {
	// Art is the artifact that answered the request (nil on error): the
	// resident one, shared by pointer, so a hop that forwards it — the
	// peer protocol's fill — does not rebuild one from its parts.
	Art *Artifact
	// Data is the transformed class: Art.Data.
	Data []byte
	// Info describes how the response was served (cache/peer/stale...).
	Info RequestInfo
	// Trace is the request's timeline: the trace the caller attached to
	// the ctx (telemetry.WithTrace), or nil when the caller asked for
	// none — a request never mints a trace of its own. Present on errors
	// too, so a caller can see where a failed request spent its time.
	Trace *telemetry.Trace

	// held is the flight whose recycled buffer Data lives in (nil when
	// the store keeps the artifact, or no flight produced it).
	held *flight
}

// Release gives the result's bytes back: once every waiter that received
// an artifact the store does not keep has released it, the buffer it lives
// in returns to the pool. Only a caller that is done with Art and Data —
// a front end that has written them to the wire — calls it, at most once;
// both are nil afterwards. A caller that never releases keeps the bytes for
// good, and the collector takes them. A no-op on a kept artifact.
func (r *Result) Release() {
	if f := r.held; f != nil {
		r.held, r.Art, r.Data = nil, nil, nil
		f.drop()
	}
}

// RequestInfo describes how a request was served; the peer protocol
// forwards it so flags survive the extra hop.
type RequestInfo struct {
	CacheHit  bool
	Coalesced bool // joined an in-flight fetch for the same class
	Rejected  bool // verification failure, replacement served
	// Stale marks a degraded response: the origin was unreachable (or
	// the proxy overloaded) and an expired cache entry was served.
	Stale bool
	// Shed marks an overload decision: with Stale set the request was
	// answered from expired cache instead of queueing a refetch;
	// otherwise it was rejected (ErrOverloaded).
	Shed bool
	// Prefetched marks a cache hit whose entry was pushed speculatively
	// (prefetch piggyback) and used here for the first time — the round
	// trip this response did NOT pay is the prefetcher's win.
	Prefetched bool
	Peer       string // cluster node that supplied the bytes, if any
	// Attestation is the artifact's trust metadata when attestation is
	// enabled: the sealed digest + quorum record stored with the cache
	// entry (Result.Art.Att).
	Attestation *attest.Attestation
}

// Stats is a snapshot of proxy counters, derived from the telemetry
// registry (the registry is the source of truth; this struct is the
// ergonomic Go view of it). A counter field is filled from the metric
// declaration field of the same name (metrics, admissionMetrics).
type Stats struct {
	Requests      int64
	CacheHits     int64
	Coalesced     int64 // requests served by joining an in-flight fetch (subset of CacheHits)
	OriginFetches int64
	FetchRetries  int64 // retry attempts scheduled against the origin
	FetchErrors   int64
	StaleServed   int64 // degraded responses served from expired cache (stale-if-error)
	PeerFetches   int64 // misses routed to the owning cluster peer
	PeerHits      int64 // peer fetches that returned the transformed class
	OwnerFetches  int64 // origin fetches performed as the key's ring owner
	Rejections    int64
	// Shed counts requests rejected by admission control (ErrOverloaded);
	// ShedStale counts overload decisions that were instead answered from
	// expired cache (those requests still succeeded).
	Shed      int64
	ShedStale int64
	// CoalescedFailures counts followers whose shared flight failed; the
	// underlying fetch error appears once in FetchErrors.
	CoalescedFailures int64
	// FlightsAbandoned counts flights canceled because every waiting
	// client disconnected first (not an origin failure).
	FlightsAbandoned int64
	// Attested counts artifacts sealed after a quorum round;
	// AttestFailures counts flights failed by the attest hook (local
	// divergence, no quorum).
	Attested       int64
	AttestFailures int64
	// CompileHits counts AOT-arch artifacts served without a local
	// compilation (cache hit or peer fill); CompileMisses counts local
	// compilations — a cheap derivation from the cached base artifact,
	// or a full pipeline run when no base was resident.
	CompileHits   int64
	CompileMisses int64
	BytesIn       int64
	BytesOut      int64
	ProxyTime     time.Duration
	// Breaker is the origin circuit-breaker snapshot.
	Breaker resilience.BreakerCounts
}

// Proxy is the static-service host.
type Proxy struct {
	origin  Origin
	cfg     Config
	breaker *resilience.Breaker
	hop     resilience.Hop
	store   *store

	flightMu sync.Mutex
	flights  map[string]*flight

	// adm is the overload controller (nil = admission disabled).
	adm *admission

	reg *telemetry.Registry
	m   metrics
}

// metrics is the proxy's metric declaration (telemetry.Declare). Stats
// documents the counters it reports under the same field names.
type metrics struct {
	Requests          *telemetry.Counter `metric:"requests_total"`
	CacheHits         *telemetry.Counter `metric:"cache_hits_total"`
	Coalesced         *telemetry.Counter `metric:"coalesced_total"`
	OriginFetches     *telemetry.Counter `metric:"origin_fetches_total"`
	FetchErrors       *telemetry.Counter `metric:"fetch_errors_total"`
	StaleServed       *telemetry.Counter `metric:"stale_served_total"`
	PeerFetches       *telemetry.Counter `metric:"peer_fetches_total"`
	PeerHits          *telemetry.Counter `metric:"peer_hits_total"`
	OwnerFetches      *telemetry.Counter `metric:"owner_fetches_total"`
	Rejections        *telemetry.Counter `metric:"rejections_total"`
	BytesIn           *telemetry.Counter `metric:"bytes_in_total"`
	BytesOut          *telemetry.Counter `metric:"bytes_out_total"`
	FetchRetries      *telemetry.Counter `metric:"fetch_retries_total"`
	CoalescedFailures *telemetry.Counter `metric:"coalesced_failures_total"`
	FlightsAbandoned  *telemetry.Counter `metric:"flights_abandoned_total"`
	Attested          *telemetry.Counter `metric:"attested_keys_total"`
	AttestFailures    *telemetry.Counter `metric:"attest_failures_total"`
	CompileHits       *telemetry.Counter `metric:"compile_hits_total"`
	CompileMisses     *telemetry.Counter `metric:"compile_misses_total"`
	// Batch-warm ingestion (replica push, handoff, prefetch — one path,
	// one set of counters).
	Warmed      *telemetry.Counter `metric:"warm_entries_total"`
	WarmedBytes *telemetry.Counter `metric:"warm_bytes_total"`

	Request     *telemetry.Histogram `metric:"request_seconds"` // whole-request latency; count == Requests
	OriginFetch *telemetry.Histogram `metric:"origin_fetch_seconds"`
	Pipeline    *telemetry.Histogram `metric:"pipeline_seconds"`      // parse+transform time; Sum backs Stats.ProxyTime
	Attest      *telemetry.Histogram `metric:"attest_quorum_seconds"` // quorum round latency per attested artifact
	BreakerOpen *telemetry.Histogram `metric:"breaker_open_seconds"`
}

// ServicePipeline composes the static service pipeline in the paper's
// Figure 2 order: verify → security → audit (→ compile for DVM clients).
// A nil policy leaves the security filter out.
func ServicePipeline(policy *security.Policy, compile bool) *rewrite.Pipeline {
	p := rewrite.NewPipeline(verifier.Filter())
	if policy != nil {
		p.Append(security.Filter(policy))
	}
	p.Append(monitor.Filter(monitor.Config{Methods: true, Skip: monitor.SkipInitializers}))
	if compile {
		p.Append(compiler.Filter())
	}
	return p
}

// DefaultMaxConcurrent is the concurrency Config.MaxConcurrent defaults
// to: 8 flights per processor, enough to keep the processors busy across
// origin waits. A cluster node sizes its per-peer connection pool from it.
func DefaultMaxConcurrent() int { return 8 * runtime.GOMAXPROCS(0) }

// New creates a proxy in front of origin.
func New(origin Origin, cfg Config) *Proxy {
	if cfg.Node == "" {
		cfg.Node = "proxy"
	}
	if cfg.Pipeline == nil {
		cfg.Pipeline = rewrite.NewPipeline()
	}
	if fs := cfg.Pipeline.Filters(); len(fs) == 0 || fs[len(fs)-1].Name() != compiler.FilterName {
		cfg.AOTBaseArch = "" // nothing to derive: the pipeline never compiles
	}
	if cfg.MaxQueue > 0 {
		if cfg.MaxConcurrent <= 0 {
			cfg.MaxConcurrent = DefaultMaxConcurrent()
		}
		if cfg.QueueDeadline <= 0 {
			cfg.QueueDeadline = time.Second
		}
	}
	p := &Proxy{
		origin:  origin,
		cfg:     cfg,
		flights: make(map[string]*flight),
		reg:     telemetry.NewRegistry("proxy"),
	}
	p.store = newStore(cfg, p.reg)
	p.reg.Declare(&p.m)
	if cfg.MaxQueue > 0 {
		// Expected service time for the deadline-aware drop: the live
		// mean origin fetch plus the live mean pipeline run.
		svc := func() time.Duration {
			return p.m.OriginFetch.Snapshot().Mean() + p.m.Pipeline.Snapshot().Mean()
		}
		p.adm = newAdmission(cfg, p.reg, svc, p.m.Requests)
	}
	p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Threshold:     cfg.BreakerThreshold,
		Cooldown:      cfg.BreakerCooldown,
		OpenDurations: p.m.BreakerOpen,
	})
	p.hop = resilience.Hop{
		Timeout: cfg.FetchTimeout,
		Retry:   resilience.RetryPolicy{Attempts: 1 + cfg.FetchRetries},
		Breaker: p.breaker,
		Retries: p.m.FetchRetries,
	}
	// Requests currently waiting on a flight, leaders included.
	p.reg.Gauge("flight_waiters", func() float64 {
		p.flightMu.Lock()
		defer p.flightMu.Unlock()
		n := 0
		for _, f := range p.flights {
			n += f.waiters
		}
		return float64(n)
	})
	// The share of parsed Utf8 constants the lazy codec actually had to
	// decode (process-wide): near 0 on pass-through traffic, rising only
	// when filters touch names, descriptors, and attribute payloads.
	p.reg.Gauge("lazy_decoded_ratio", func() float64 {
		s := classfile.CodecStats()
		if s.Utf8Seen == 0 {
			return 0
		}
		return float64(s.Utf8Decoded) / float64(s.Utf8Seen)
	})
	p.reg.Gauge("descriptor_cache_hits", func() float64 {
		hits, _ := bytecode.DescriptorCacheStats()
		return float64(hits)
	})
	p.reg.Gauge("descriptor_cache_misses", func() float64 {
		_, misses := bytecode.DescriptorCacheStats()
		return float64(misses)
	})
	return p
}

// Telemetry exposes the proxy's metric registry (mounted on /metrics by
// the HTTP front end; the cluster node adds its peer counters here).
func (p *Proxy) Telemetry() *telemetry.Registry { return p.reg }

// Health reports the shared versioned health schema: degraded while the
// origin breaker is open (requests are being answered from stale cache
// or failing), ok otherwise.
func (p *Proxy) Health() telemetry.Health {
	bc := p.breaker.Counts()
	status := telemetry.StatusOK
	if bc.State == resilience.Open.String() {
		status = telemetry.StatusDegraded
	}
	h := p.reg.Health(status)
	h.Breakers = map[string]telemetry.BreakerHealth{
		"origin": {State: bc.State, Trips: bc.Trips, Successes: bc.Successes, Failures: bc.Failures},
	}
	return h
}

// Stats returns a snapshot of the counters, read from the registry.
func (p *Proxy) Stats() Stats {
	s := Stats{
		Shed:      p.adm.shedTotal(),
		ProxyTime: p.m.Pipeline.Snapshot().Sum,
		Breaker:   p.breaker.Counts(),
	}
	telemetry.Add(&s, &p.m)
	if p.adm != nil {
		telemetry.Add(&s, &p.adm.m)
	}
	return s
}

// RequestLatency snapshots the whole-request latency histogram; cluster
// aggregation merges these across nodes.
func (p *Proxy) RequestLatency() telemetry.HistSnapshot {
	return p.m.Request.Snapshot()
}

// CacheSnapshot returns cached artifacts most-recently-used first —
// recency is the proxy's hotness signal — stopping once their data
// exceeds maxBytes (0 = unbounded). keep filters (nil = all). The
// cluster handoff path uses it to offer a new owner its hottest
// inherited keys first.
func (p *Proxy) CacheSnapshot(maxBytes int, keep func(arch, class string) bool) []*Artifact {
	return p.store.snapshot(maxBytes, keep)
}

// Warm puts already-transformed classes into the cache without a
// request: replication pushes, membership handoffs and predictive
// prefetch all seed a node's cache with results another node paid for,
// through this one path with one set of counters. The caller (the
// cluster layer) verifies each artifact's attestation against its bytes
// first. Source says why each one is here; ReasonPrefetch artifacts are
// speculative and are skipped, not forced, when they do not fit (see
// store.put).
//
// Returns the number stored. No-op when caching is disabled.
func (p *Proxy) Warm(arts []*Artifact) int {
	if !p.cfg.CacheEnabled {
		return 0
	}
	stored := 0
	for _, a := range arts {
		if p.store.put(a) {
			p.m.Warmed.Inc()
			p.m.WarmedBytes.Add(int64(len(a.Data)))
			stored++
		}
	}
	return stored
}

// Peek returns the fresh cached artifact for (arch, class) without
// touching LRU recency, the prefetch ledger, or any counter (nil = not
// resident or due for revalidation).
func (p *Proxy) Peek(arch, class string) *Artifact {
	if !p.cfg.CacheEnabled {
		return nil
	}
	return p.store.peek(arch + "\x00" + class)
}

// PrefetchLedger is the prefetch account: every pushed byte ends as a
// hit, resident, or reported waste.
type PrefetchLedger struct {
	Inserted      int64 // entries stored
	Hits          int64 // first uses of a prefetched entry
	Skipped       int64 // pushes refused (already cached or no headroom)
	WasteBytes    int64 // evicted or overwritten before first use
	ResidentBytes int64 // resident and not yet used
}

// PrefetchStats reports the prefetch ledger.
func (p *Proxy) PrefetchStats() PrefetchLedger { return p.store.ledger() }

// UnderPressure reports whether the admission queue is at least half
// full — the same threshold at which stale entries are served instead
// of queued. Auxiliary work (handoff serving, replication intake) is
// shed at this point so overload never competes with client traffic.
func (p *Proxy) UnderPressure() bool { return p.adm.pressured() }

// Request serves one class to one client: the full intercept path. The
// ctx bounds the whole request (client disconnect, caller deadline);
// per-attempt origin deadlines come from Config.FetchTimeout. If the
// ctx carries a telemetry trace the request records a span per stage on
// it, and Result.Trace returns it; an untraced request records nothing
// and no trace is minted for it. The histograms are fed either way.
// Every request, served or failed, leaves one audit record.
func (p *Proxy) Request(ctx context.Context, l Lookup) (Result, error) {
	tr := telemetry.FromContext(ctx)
	span := tr.StartSpan(p.cfg.Node, "proxy.request")
	p.m.Requests.Inc()
	art, held, rec, err := p.serve(ctx, tr, l)
	res := Result{Info: rec.RequestInfo, Trace: tr, held: held}
	if art != nil {
		res.Art, res.Data = art, art.Data
		p.m.BytesOut.Add(int64(len(art.Data)))
	}
	if p.cfg.OnAudit != nil {
		rec.Lookup, rec.Bytes, rec.Duration = l, len(res.Data), span.Elapsed()
		if err != nil {
			rec.FetchError = err.Error()
		}
		p.cfg.OnAudit(rec)
	}
	p.m.Request.Observe(span.End())
	return res, err
}

// serve is the request body under the root span: memory probe, miss
// coalescing, and the wait for the flight. The record it returns lacks
// only what Request knows (who, how long); the flight it returns, if any,
// is the one whose recycled buffer the artifact lives in.
func (p *Proxy) serve(ctx context.Context, tr *telemetry.Trace, l Lookup) (*Artifact, *flight, RequestRecord, error) {
	key := l.Arch + "\x00" + l.Class

	var stale *Artifact // expired entry kept for stale-if-error
	if p.cfg.CacheEnabled {
		art, fresh, prefetched := p.store.get(key)
		if fresh {
			p.m.CacheHits.Inc()
			p.countCompileHit(l.Arch) // a resident compiled artifact: nobody compiles anything
			return art, nil, RequestRecord{RequestInfo: RequestInfo{
				CacheHit: true, Prefetched: prefetched, Rejected: art.Rejected, Attestation: art.Att}}, nil
		}
		stale = art
	}

	// Coalesce concurrent misses: if another request is already fetching
	// and transforming this key, join it instead of duplicating the
	// origin fetch and the pipeline run.
	p.flightMu.Lock()
	if f, ok := p.flights[key]; ok {
		f.waiters++
		p.flightMu.Unlock()
		return p.awaitFlight(ctx, tr, key, f, l.Arch, false)
	}
	// First request for this key: start the flight on a context detached
	// from this client. The client's disconnect must not fail the other
	// clients that coalesce onto the flight; the work is canceled only
	// when the last waiter leaves (leaveFlight).
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	p.flights[key] = f
	p.flightMu.Unlock()

	// The detached context drops the client's deadline, so capture the
	// remaining budget here for the admission controller's deadline-aware
	// drop (<0 = no deadline).
	budget := time.Duration(-1)
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
	}
	go p.runFlight(fctx, tr, f, key, l, stale, budget)
	return p.awaitFlight(ctx, tr, key, f, l.Arch, true)
}

// countCompileHit counts a compiled-architecture artifact served
// without compiling anything here (Stats.CompileHits).
func (p *Proxy) countCompileHit(arch string) {
	if p.cfg.AOTBaseArch != "" && arch == compiler.ArchDVM {
		p.m.CompileHits.Inc()
	}
}

// leaveFlight drops one waiter from a flight. The last waiter to leave
// cancels the detached work — nobody wants the result anymore — and
// unpublishes the flight so the next request for the key starts fresh
// instead of joining a canceled fetch. A waiter that leaves after the
// flight finished was counted as a holder of its result, and gives that
// hold back here.
func (p *Proxy) leaveFlight(key string, f *flight) {
	p.flightMu.Lock()
	f.waiters--
	last, finished := f.waiters == 0, f.finished
	if last && p.flights[key] == f {
		delete(p.flights, key)
	}
	p.flightMu.Unlock()
	if finished {
		f.drop()
	} else if last {
		f.cancel()
	}
}

// awaitFlight is the waiter path every request takes once a flight
// exists for its key: share the flight's result and account for this
// client's own request. The request that started the flight (leader)
// waits without a span — the flight's own spans are already on its
// trace; a follower's wait is a "queue.wait" span, because coalescing
// trades duplicated work for queueing delay and the trace shows exactly
// how much.
func (p *Proxy) awaitFlight(ctx context.Context, tr *telemetry.Trace, key string, f *flight, arch string, leader bool) (*Artifact, *flight, RequestRecord, error) {
	var wait telemetry.SpanTimer
	if !leader {
		wait = tr.StartSpan(p.cfg.Node, "queue.wait")
	}
	rec := RequestRecord{RequestInfo: RequestInfo{Coalesced: !leader}}
	select {
	case <-f.done:
		if !leader {
			wait.End()
		}
	case <-ctx.Done():
		if !leader {
			wait.End()
		}
		// This client gave up (disconnect or deadline); the flight
		// continues for the others — unless this was the last waiter,
		// in which case leaveFlight cancels the work.
		p.leaveFlight(key, f)
		return nil, nil, rec, ctx.Err()
	}
	rec.Shed = f.shed
	if leader {
		// Flight-level detail rides the leader's record.
		rec.PeerError, rec.FetchError, rec.ProxyTime = f.peerErr, f.fetchErr, f.proxyTime
	}
	if f.err != nil {
		if !leader {
			// The fetch error itself was counted once, on the flight;
			// followers count separately so one bad origin fetch with N
			// waiters does not inflate fetch_errors_total by N+1.
			p.m.CoalescedFailures.Inc()
		}
		return nil, nil, rec, f.err
	}
	art := f.art
	rec.Rejected, rec.Stale, rec.Peer, rec.Attestation = art.Rejected, f.stale, f.peer, art.Att
	// A follower shares bytes another request paid for — a cache hit in
	// all but storage; so does the leader when the flight found the key
	// fresh in the disk tier, and any waiter served a stale entry from
	// this node's own cache (stale-if-error or a shed onto the stale
	// copy).
	disk := !f.stale && art.Source == SourceDisk
	rec.CacheHit = !leader || disk || (f.stale && f.peer == "")
	if !leader || disk {
		p.m.CacheHits.Inc()
	}
	if !leader {
		p.m.Coalesced.Inc()
	} else if disk {
		p.countCompileHit(arch)
	}
	if f.stale {
		p.m.StaleServed.Inc()
	}
	var held *flight
	if f.buf != nil {
		held = f
	}
	return art, held, rec, nil
}
