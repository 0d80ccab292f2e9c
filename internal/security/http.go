package security

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dvm/internal/resilience"
	"dvm/internal/telemetry"
)

// HTTP transport for the security service: enforcement managers on
// clients download their domain's rules from the central server and
// learn about policy changes through a version-based invalidation
// channel (the paper's "cache-invalidation protocol between the security
// server and the enforcement manager").
//
// Wire format (JSON over HTTP):
//
//	GET /domain?sid=apps          -> {version, grants: [{permission, target}]}
//	GET /decide?sid=&perm=&target= -> {allowed}
//	GET /poll?since=N              -> {version}   (blocks until version > N or timeout)
//
// Failure semantics: the security service is trust-critical, so it
// fails CLOSED — when the server is unreachable (timeout, refused,
// breaker open) the enforcement manager denies the check, counts it in
// DegradedDenies, and reports it through OnDegraded. An outage can
// revoke access, never grant it.

type wireDomain struct {
	Version int64   `json:"version"`
	Grants  []Grant `json:"grants"`
}

// VersionedServer wraps Server with a policy version counter and a
// notification channel for long-polling managers.
type VersionedServer struct {
	*Server
	mu      sync.Mutex
	version int64
	waiters map[chan struct{}]struct{}

	reg *telemetry.Registry
	m   struct {
		Domains *telemetry.Counter   `metric:"domain_fetches_total"`
		Decides *telemetry.Counter   `metric:"decides_total"`
		Polls   *telemetry.Counter   `metric:"polls_total"`
		Decide  *telemetry.Histogram `metric:"decide_seconds"`
		Domain  *telemetry.Histogram `metric:"domain_seconds"`
	}
}

// NewVersionedServer wraps a security server for network use.
func NewVersionedServer(s *Server) *VersionedServer {
	v := &VersionedServer{Server: s, version: 1, waiters: make(map[chan struct{}]struct{})}
	v.reg = telemetry.NewRegistry("secd")
	v.reg.Declare(&v.m)
	v.reg.Gauge("policy_version", func() float64 { return float64(v.Version()) })
	v.reg.Gauge("poll_waiters", func() float64 { return float64(v.Waiters()) })
	return v
}

// Telemetry exposes the server's metric registry.
func (v *VersionedServer) Telemetry() *telemetry.Registry { return v.reg }

// Health reports the shared versioned health schema.
func (v *VersionedServer) Health() telemetry.Health {
	return v.reg.Health(telemetry.StatusOK)
}

// UpdatePolicy swaps the policy, bumps the version, and wakes pollers.
func (v *VersionedServer) UpdatePolicy(p *Policy) {
	v.Server.UpdatePolicy(p)
	v.mu.Lock()
	v.version++
	ws := v.waiters
	v.waiters = make(map[chan struct{}]struct{})
	v.mu.Unlock()
	for w := range ws {
		close(w)
	}
}

// Version returns the current policy version.
func (v *VersionedServer) Version() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.version
}

// Waiters returns the number of registered long-poll waiters
// (diagnostics; a disconnected client must not leave one behind).
func (v *VersionedServer) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// waitBeyond blocks until the version exceeds since, the timeout
// expires, or ctx is cancelled (client hung up), returning the current
// version. The waiter is deregistered on every exit path: a client that
// disconnects mid-poll must not leak its channel until the next policy
// update.
func (v *VersionedServer) waitBeyond(ctx context.Context, since int64, timeout time.Duration) int64 {
	v.mu.Lock()
	if v.version > since {
		cur := v.version
		v.mu.Unlock()
		return cur
	}
	w := make(chan struct{})
	v.waiters[w] = struct{}{}
	v.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w:
	case <-timer.C:
	case <-ctx.Done():
	}
	v.mu.Lock()
	delete(v.waiters, w)
	v.mu.Unlock()
	return v.Version()
}

// Handler exposes the server over HTTP.
func (v *VersionedServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/domain", func(w http.ResponseWriter, r *http.Request) {
		sid := r.URL.Query().Get("sid")
		if sid == "" {
			http.Error(w, "missing sid", http.StatusBadRequest)
			return
		}
		// A traced client (X-DVM-Trace) gets this hop's span back in the
		// response so domain-fetch time shows up in its timeline; an
		// untraced one gets no span header. The histogram sees every call.
		tr := telemetry.JoinTrace(r.Header.Get(telemetry.TraceHeader))
		span := tr.StartSpan("secd", "secd.domain")
		v.m.Domains.Inc()
		grants := v.FetchDomain(sid)
		v.m.Domain.Observe(span.End())
		tr.WriteSpans(w.Header())
		writeJSONSec(w, wireDomain{Version: v.Version(), Grants: grants})
	})
	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		tr := telemetry.JoinTrace(r.Header.Get(telemetry.TraceHeader))
		span := tr.StartSpan("secd", "secd.decide")
		v.m.Decides.Inc()
		allowed := v.Decide(q.Get("sid"), q.Get("perm"), q.Get("target"))
		v.m.Decide.Observe(span.End())
		tr.WriteSpans(w.Header())
		writeJSONSec(w, map[string]bool{"allowed": allowed})
	})
	mux.HandleFunc("/poll", func(w http.ResponseWriter, r *http.Request) {
		since, _ := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
		v.m.Polls.Inc()
		ver := v.waitBeyond(r.Context(), since, 25*time.Second)
		writeJSONSec(w, map[string]int64{"version": ver})
	})
	mux.Handle("/healthz", telemetry.HealthHandler(v.Health))
	mux.Handle("/metrics", v.reg.Handler())
	return mux
}

func writeJSONSec(w http.ResponseWriter, val any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(val)
}

// RemoteOptions parameterizes a RemoteManager's hop to the security
// server.
type RemoteOptions struct {
	// Policy is the hop's to the server: a zero Timeout bounds each
	// /domain fetch attempt at 5 s.
	Policy resilience.Policy
	// OnDegraded receives fail-closed denials (audited Degraded record).
	OnDegraded func(sid, permission, target string, err error)
	// cooldown overrides resilience.Cooldown for the server breaker
	// (tests only).
	cooldown time.Duration
}

// RemoteManager is an enforcement manager whose server lives across the
// network. It downloads the domain rules on first touch, caches
// decisions, and invalidates when the long-poll observes a new policy
// version. When the server is unreachable it fails closed: checks are
// denied (never allowed) until the server comes back.
type RemoteManager struct {
	*Manager
	base    string
	poller  *http.Client // long polls: must outlive the 25s server hold
	hop     resilience.Hop
	sid     string
	ctx     context.Context
	cancel  context.CancelFunc
	stopped sync.Once

	mu      sync.Mutex
	version int64
}

// NewRemoteManagerWith builds a manager against a security server at
// baseURL with the given per-hop deadline, retry, and breaker settings
// (zero RemoteOptions take the defaults) and starts the invalidation
// poller.
func NewRemoteManagerWith(baseURL, sid string, opts RemoteOptions) *RemoteManager {
	ctx, cancel := context.WithCancel(context.Background())
	rm := &RemoteManager{
		base:   strings.TrimRight(baseURL, "/"),
		poller: &http.Client{Timeout: 40 * time.Second},
		hop:    resilience.NewHop(opts.Policy, 5*time.Second, opts.cooldown),
		sid:    sid,
		ctx:    ctx,
		cancel: cancel,
	}
	// The embedded Manager handles caching; its "server" is this remote
	// transport.
	srv := NewServer(&Policy{domainByID: map[string]*Domain{}})
	srv.FetchDelay = nil
	rm.Manager = NewManager(srv, sid)
	rm.Manager.fetchOverride = rm.fetchDomain
	rm.Manager.OnDegraded = opts.OnDegraded
	go rm.pollLoop()
	return rm
}

// Breaker exposes the server-hop circuit breaker (diagnostics).
func (rm *RemoteManager) Breaker() *resilience.Breaker { return rm.hop.Breaker() }

// fetchDomain downloads the domain rules and records the policy
// version. Each attempt is bounded by the hop's timeout alone. An error
// (timeout, refused, breaker open, bad payload) means the caller's check
// fails closed.
func (rm *RemoteManager) fetchDomain(sid string) ([]Grant, error) {
	var wd wireDomain
	err := rm.hop.Do(rm.ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rm.base+"/domain?sid="+sid, nil)
		if err != nil {
			return resilience.Permanent(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("security: domain fetch: %s", resp.Status)
		}
		return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wd)
	})
	if err != nil {
		return nil, err
	}
	rm.mu.Lock()
	rm.version = wd.Version
	rm.mu.Unlock()
	return wd.Grants, nil
}

// pollLoop watches for policy-version changes and invalidates the local
// cache when one lands.
func (rm *RemoteManager) pollLoop() {
	for rm.ctx.Err() == nil {
		rm.mu.Lock()
		since := rm.version
		rm.mu.Unlock()
		req, err := http.NewRequestWithContext(rm.ctx, http.MethodGet,
			fmt.Sprintf("%s/poll?since=%d", rm.base, since), nil)
		if err != nil {
			return
		}
		resp, err := rm.poller.Do(req)
		if err != nil {
			select {
			case <-rm.ctx.Done():
				return
			case <-time.After(time.Second):
				continue
			}
		}
		var out struct {
			Version int64 `json:"version"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<10)).Decode(&out)
		resp.Body.Close()
		if err != nil {
			continue
		}
		// Compare with the version the cached rules came from now, not
		// with since: a first poll sent before the first domain fetch
		// carries since 0, and a policy update that lands between that
		// fetch and this answer must still invalidate what it cached.
		rm.mu.Lock()
		stale := rm.version != 0 && out.Version > rm.version
		rm.version = out.Version
		rm.mu.Unlock()
		if stale {
			rm.Manager.invalidate()
		}
	}
}

// Close stops the invalidation poller (cancelling any in-flight poll).
func (rm *RemoteManager) Close() {
	rm.stopped.Do(rm.cancel)
}
