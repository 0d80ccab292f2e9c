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
	"dvm/internal/resilience"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
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
	// RetrySeed makes the retry jitter deterministic (tests).
	RetrySeed uint64
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
	// shed ordering.
	MaxQueue int
	// MaxConcurrent bounds the flights doing origin-fetch + pipeline
	// work at once when admission control is enabled (default
	// 8×GOMAXPROCS). Cache hits and coalesced followers do not count
	// against it.
	MaxConcurrent int
	// QueueDeadline bounds how long a flight may wait for a service
	// slot before it is shed (default 1s when admission is enabled).
	QueueDeadline time.Duration
	// ShedPolicy selects what to shed under overload: ShedPriority
	// (default — stale-serve before rejecting, peer fills before local
	// misses, per-client fair shares) or ShedFIFO (bounded queue, tail
	// drop only).
	ShedPolicy string

	// AOTBaseArch, when set, turns the compiler's output into a shared
	// derived artifact: a miss for compiler.ArchDVM whose AOTBaseArch
	// artifact (the pipeline output without the compile step, e.g.
	// "jvm") is resident is answered by compiler.CompileArtifact over
	// those bytes — no origin fetch, no pipeline run. Every filter ahead
	// of the compiler is architecture-independent, so the result is
	// byte-identical to the full pipeline's, and it caches, replicates
	// and seals (SealCompile) like any other artifact.
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
// ergonomic Go view of it).
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
	// client disconnected first.
	FlightsAbandoned int64
	// Attested counts artifacts sealed after a quorum round;
	// AttestFailures counts flights failed by the attest hook.
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

	cRequests      *telemetry.Counter
	cCacheHits     *telemetry.Counter
	cCoalesced     *telemetry.Counter
	cOriginFetches *telemetry.Counter
	cFetchErrors   *telemetry.Counter
	cStaleServed   *telemetry.Counter
	cPeerFetches   *telemetry.Counter
	cPeerHits      *telemetry.Counter
	cOwnerFetches  *telemetry.Counter
	cRejections    *telemetry.Counter
	cBytesIn       *telemetry.Counter
	cBytesOut      *telemetry.Counter
	cFetchRetries  *telemetry.Counter
	// cCoalescedFailures counts followers whose shared flight failed;
	// the underlying fetch error is counted once, on the flight.
	cCoalescedFailures *telemetry.Counter
	// cFlightsAbandoned counts flights canceled because every waiter
	// disconnected before the result arrived (not an origin failure).
	cFlightsAbandoned *telemetry.Counter
	// cAttested counts artifacts that finished a quorum round and were
	// sealed; cAttestFailures counts flights failed by the attest hook
	// (local divergence, no quorum).
	cAttested       *telemetry.Counter
	cAttestFailures *telemetry.Counter
	// cCompileHits / cCompileMisses implement the AOT code cache's
	// "fleet pays one compilation per class" accounting (see Stats).
	cCompileHits   *telemetry.Counter
	cCompileMisses *telemetry.Counter

	// Batch-warm ingestion (replica push, handoff, prefetch — one path,
	// one set of counters).
	cWarmed      *telemetry.Counter
	cWarmedBytes *telemetry.Counter

	hRequest     *telemetry.Histogram // whole-request latency; count == Requests
	hOriginFetch *telemetry.Histogram
	hPipeline    *telemetry.Histogram // parse+transform time; Sum backs Stats.ProxyTime
	hAttest      *telemetry.Histogram // quorum round latency per attested artifact
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
	if cfg.MaxQueue > 0 {
		if cfg.MaxConcurrent <= 0 {
			cfg.MaxConcurrent = DefaultMaxConcurrent()
		}
		if cfg.QueueDeadline <= 0 {
			cfg.QueueDeadline = time.Second
		}
		if cfg.ShedPolicy == "" {
			cfg.ShedPolicy = ShedPriority
		}
	}
	p := &Proxy{
		origin:  origin,
		cfg:     cfg,
		flights: make(map[string]*flight),
		reg:     telemetry.NewRegistry("proxy"),
	}
	p.store = newStore(cfg, p.reg)
	p.cRequests = p.reg.Counter("requests_total")
	p.cCacheHits = p.reg.Counter("cache_hits_total")
	p.cCoalesced = p.reg.Counter("coalesced_total")
	p.cOriginFetches = p.reg.Counter("origin_fetches_total")
	p.cFetchErrors = p.reg.Counter("fetch_errors_total")
	p.cStaleServed = p.reg.Counter("stale_served_total")
	p.cPeerFetches = p.reg.Counter("peer_fetches_total")
	p.cPeerHits = p.reg.Counter("peer_hits_total")
	p.cOwnerFetches = p.reg.Counter("owner_fetches_total")
	p.cRejections = p.reg.Counter("rejections_total")
	p.cBytesIn = p.reg.Counter("bytes_in_total")
	p.cBytesOut = p.reg.Counter("bytes_out_total")
	p.cFetchRetries = p.reg.Counter("fetch_retries_total")
	p.cCoalescedFailures = p.reg.Counter("coalesced_failures_total")
	p.cFlightsAbandoned = p.reg.Counter("flights_abandoned_total")
	p.cAttested = p.reg.Counter("attested_keys_total")
	p.cAttestFailures = p.reg.Counter("attest_failures_total")
	p.cCompileHits = p.reg.Counter("compile_hits_total")
	p.cCompileMisses = p.reg.Counter("compile_misses_total")
	p.cWarmed = p.reg.Counter("warm_entries_total")
	p.cWarmedBytes = p.reg.Counter("warm_bytes_total")
	p.hRequest = p.reg.Histogram("request_seconds", nil)
	p.hOriginFetch = p.reg.Histogram("origin_fetch_seconds", nil)
	p.hPipeline = p.reg.Histogram("pipeline_seconds", nil)
	p.hAttest = p.reg.Histogram("attest_quorum_seconds", nil)
	if cfg.MaxQueue > 0 {
		// Expected service time for the deadline-aware drop: the live
		// mean origin fetch plus the live mean pipeline run.
		svc := func() time.Duration {
			return p.hOriginFetch.Snapshot().Mean() + p.hPipeline.Snapshot().Mean()
		}
		p.adm = newAdmission(cfg, p.reg, svc, p.cRequests)
	}
	p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Threshold:     cfg.BreakerThreshold,
		Cooldown:      cfg.BreakerCooldown,
		OpenDurations: p.reg.Histogram("breaker_open_seconds", nil),
	})
	p.hop = resilience.Hop{
		Timeout: cfg.FetchTimeout,
		Retry: resilience.RetryPolicy{
			Attempts: 1 + cfg.FetchRetries,
			Seed:     cfg.RetrySeed,
		},
		Breaker: p.breaker,
		Retries: p.cFetchRetries,
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
	return Stats{
		Requests:      p.cRequests.Load(),
		CacheHits:     p.cCacheHits.Load(),
		Coalesced:     p.cCoalesced.Load(),
		OriginFetches: p.cOriginFetches.Load(),
		FetchRetries:  p.cFetchRetries.Load(),
		FetchErrors:   p.cFetchErrors.Load(),
		StaleServed:   p.cStaleServed.Load(),
		PeerFetches:   p.cPeerFetches.Load(),
		PeerHits:      p.cPeerHits.Load(),
		OwnerFetches:  p.cOwnerFetches.Load(),
		Rejections:    p.cRejections.Load(),
		Shed:          p.shedTotal(),
		ShedStale:     p.shedStale(),

		CoalescedFailures: p.cCoalescedFailures.Load(),
		FlightsAbandoned:  p.cFlightsAbandoned.Load(),
		Attested:          p.cAttested.Load(),
		AttestFailures:    p.cAttestFailures.Load(),
		CompileHits:       p.cCompileHits.Load(),
		CompileMisses:     p.cCompileMisses.Load(),
		BytesIn:           p.cBytesIn.Load(),
		BytesOut:          p.cBytesOut.Load(),
		ProxyTime:         p.hPipeline.Snapshot().Sum,
		Breaker:           p.breaker.Counts(),
	}
}

// shedTotal reports requests rejected by admission control.
func (p *Proxy) shedTotal() int64 {
	if p.adm == nil {
		return 0
	}
	return p.adm.shedTotal()
}

// shedStale reports overload decisions answered from expired cache.
func (p *Proxy) shedStale() int64 {
	if p.adm == nil {
		return 0
	}
	return p.adm.cShedStale.Load()
}

// RequestLatency snapshots the whole-request latency histogram; cluster
// aggregation merges these across nodes.
func (p *Proxy) RequestLatency() telemetry.HistSnapshot {
	return p.hRequest.Snapshot()
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
			p.cWarmed.Inc()
			p.cWarmedBytes.Add(int64(len(a.Data)))
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
	p.cRequests.Inc()
	art, rec, err := p.serve(ctx, tr, l)
	res := Result{Info: rec.RequestInfo, Trace: tr}
	if art != nil {
		res.Art, res.Data = art, art.Data
		p.cBytesOut.Add(int64(len(art.Data)))
	}
	if p.cfg.OnAudit != nil {
		rec.Lookup, rec.Bytes, rec.Duration = l, len(res.Data), span.Elapsed()
		if err != nil {
			rec.FetchError = err.Error()
		}
		p.cfg.OnAudit(rec)
	}
	p.hRequest.Observe(span.End())
	return res, err
}

// serve is the request body under the root span: memory probe, miss
// coalescing, and the wait for the flight. The record it returns lacks
// only what Request knows (who, how long).
func (p *Proxy) serve(ctx context.Context, tr *telemetry.Trace, l Lookup) (*Artifact, RequestRecord, error) {
	key := l.Arch + "\x00" + l.Class

	var stale *Artifact // expired entry kept for stale-if-error
	if p.cfg.CacheEnabled {
		art, fresh, prefetched := p.store.get(key)
		if fresh {
			p.cCacheHits.Inc()
			p.countCompileHit(l.Arch) // a resident compiled artifact: nobody compiles anything
			return art, RequestRecord{RequestInfo: RequestInfo{
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
		p.cCompileHits.Inc()
	}
}

// leaveFlight drops one waiter from a flight. The last waiter to leave
// cancels the detached work — nobody wants the result anymore — and
// unpublishes the flight so the next request for the key starts fresh
// instead of joining a canceled fetch.
func (p *Proxy) leaveFlight(key string, f *flight) {
	p.flightMu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && p.flights[key] == f {
		delete(p.flights, key)
	}
	p.flightMu.Unlock()
	if last {
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
func (p *Proxy) awaitFlight(ctx context.Context, tr *telemetry.Trace, key string, f *flight, arch string, leader bool) (*Artifact, RequestRecord, error) {
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
		return nil, rec, ctx.Err()
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
			p.cCoalescedFailures.Inc()
		}
		return nil, rec, f.err
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
		p.cCacheHits.Inc()
	}
	if !leader {
		p.cCoalesced.Inc()
	} else if disk {
		p.countCompileHit(arch)
	}
	if f.stale {
		p.cStaleServed.Inc()
	}
	return art, rec, nil
}
