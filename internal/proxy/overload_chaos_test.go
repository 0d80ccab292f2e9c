package proxy_test

// Overload chaos suite: detached coalesced flights under client
// disconnects, bounded-queue rejection, and shed-before-reject
// ordering, end to end through Proxy.Request and the HTTP front end.
// Deterministic gates instead of sleeps wherever possible; safe under
// -race.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
)

// overloadCorpus builds n distinct single-class applets so each request
// is its own flight.
func overloadCorpus(t *testing.T, n int) proxy.MapOrigin {
	t.Helper()
	out := make(proxy.MapOrigin, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("app/Load%03d", i)
		b := classgen.NewClass(name, "java/lang/Object")
		b.DefaultInit()
		m := b.Method(classfile.AccPublic|classfile.AccStatic, "val", "()I")
		m.IConst(int32(i)).IReturn()
		data, err := b.BuildBytes()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// gateOrigin blocks fetches (while blocking is set) until release is
// closed or the fetch context dies, and counts the fetches that reached
// the gate — the deterministic way to hold a flight mid-fetch.
type gateOrigin struct {
	inner    proxy.Origin
	blocking atomic.Bool
	entered  atomic.Int64
	release  chan struct{}
}

func newGateOrigin(inner proxy.Origin) *gateOrigin {
	g := &gateOrigin{inner: inner, release: make(chan struct{})}
	g.blocking.Store(true)
	return g
}

func (g *gateOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	g.entered.Add(1)
	if g.blocking.Load() {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.Fetch(ctx, name)
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func queueDepth(p *proxy.Proxy) float64 { return p.Health().Gauges["queue_depth"] }

// TestCoalescedFlightSurvivesLeaderCancel is the regression test for
// the detached-flight bugfix: the client that happened to start the
// flight disconnects mid-fetch, and a follower with a generous deadline
// must still get the bytes — the flight's work no longer runs on the
// leader's request context.
func TestCoalescedFlightSurvivesLeaderCancel(t *testing.T) {
	g := newGateOrigin(origin(t))
	p := proxy.New(g, proxy.Config{Pipeline: rewrite.NewPipeline(), CacheEnabled: true})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := p.Request(leaderCtx, proxy.Lookup{Client: "leader", Arch: "dvm", Class: "app/Dep"})
		leaderDone <- err
	}()
	waitFor(t, "flight to reach the origin", func() bool { return g.entered.Load() == 1 })

	type followerResult struct {
		res proxy.Result
		err error
	}
	followerDone := make(chan followerResult, 1)
	go func() {
		res, err := p.Request(context.Background(), proxy.Lookup{Client: "follower", Arch: "dvm", Class: "app/Dep"})
		followerDone <- followerResult{res, err}
	}()
	waitFor(t, "follower to join the flight", func() bool {
		return p.Health().Gauges["flight_waiters"] == 2
	})

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader err = %v, want context.Canceled", err)
	}

	close(g.release)
	fr := <-followerDone
	if fr.err != nil {
		t.Fatalf("follower failed after leader disconnect: %v", fr.err)
	}
	if len(fr.res.Data) == 0 || !fr.res.Info.Coalesced {
		t.Fatalf("follower result = %d bytes, coalesced=%v; want coalesced bytes", len(fr.res.Data), fr.res.Info.Coalesced)
	}
	s := p.Stats()
	if s.OriginFetches != 1 || s.FetchErrors != 0 || s.FlightsAbandoned != 0 {
		t.Errorf("stats = fetches %d / errors %d / abandoned %d, want 1/0/0", s.OriginFetches, s.FetchErrors, s.FlightsAbandoned)
	}
}

// TestFlightAbandonedWhenAllWaitersLeave: when the only client of a
// flight disconnects, the detached work is canceled and counted as an
// abandonment, not an origin failure.
func TestFlightAbandonedWhenAllWaitersLeave(t *testing.T) {
	g := newGateOrigin(origin(t))
	p := proxy.New(g, proxy.Config{Pipeline: rewrite.NewPipeline(), CacheEnabled: true})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Request(ctx, proxy.Lookup{Client: "only", Arch: "dvm", Class: "app/Dep"})
		done <- err
	}()
	waitFor(t, "flight to reach the origin", func() bool { return g.entered.Load() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The worker finishes asynchronously; the cancellation must land in
	// flights_abandoned_total, not fetch_errors_total.
	waitFor(t, "flight abandonment to be counted", func() bool {
		return p.Stats().FlightsAbandoned == 1
	})
	if s := p.Stats(); s.FetchErrors != 0 {
		t.Errorf("FetchErrors = %d after abandonment, want 0", s.FetchErrors)
	}
	// The key is clean: a fresh request starts a new flight and succeeds.
	close(g.release)
	res, err := p.Request(context.Background(), proxy.Lookup{Client: "next", Arch: "dvm", Class: "app/Dep"})
	if err != nil || len(res.Data) == 0 {
		t.Fatalf("request after abandoned flight: %d bytes, %v", len(res.Data), err)
	}
}

// TestSlowClientsHoldCoalescedFlight: a mixed crowd — patient clients
// and slow-to-die ones with tight deadlines — piles onto one gated
// flight. The impatient half leaves without failing the flight; the
// patient half shares the single fetch.
func TestSlowClientsHoldCoalescedFlight(t *testing.T) {
	const patient, impatient = 16, 8
	g := newGateOrigin(origin(t))
	p := proxy.New(g, proxy.Config{Pipeline: rewrite.NewPipeline(), CacheEnabled: true})

	var wg sync.WaitGroup
	var served, expired, unexpected atomic.Int64
	for i := 0; i < patient; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := p.Request(context.Background(), proxy.Lookup{Client: fmt.Sprintf("patient-%d", i), Arch: "dvm", Class: "app/Dep"})
			if err == nil && len(res.Data) > 0 {
				served.Add(1)
			} else {
				unexpected.Add(1)
			}
		}(i)
	}
	for i := 0; i < impatient; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := p.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("impatient-%d", i), Arch: "dvm", Class: "app/Dep"})
			if errors.Is(err, context.DeadlineExceeded) {
				expired.Add(1)
			} else {
				unexpected.Add(1)
			}
		}(i)
	}
	waitFor(t, "flight to reach the origin", func() bool { return g.entered.Load() >= 1 })
	waitFor(t, "impatient clients to expire", func() bool { return expired.Load() == impatient })
	close(g.release)
	wg.Wait()

	if served.Load() != patient || unexpected.Load() != 0 {
		t.Fatalf("served=%d expired=%d unexpected=%d; want %d/%d/0",
			served.Load(), expired.Load(), unexpected.Load(), patient, impatient)
	}
	s := p.Stats()
	if s.OriginFetches != 1 {
		t.Errorf("OriginFetches = %d, want 1 (everyone coalesced)", s.OriginFetches)
	}
	if s.FetchErrors != 0 || s.CoalescedFailures != 0 {
		t.Errorf("FetchErrors=%d CoalescedFailures=%d, want 0/0", s.FetchErrors, s.CoalescedFailures)
	}
}

// TestOverloadQueueFullRejects drives the bounded admission queue to
// its limit end to end: the overflow request is refused with
// ErrOverloaded (429 + Retry-After over HTTP), the shed is visible in
// /metrics and /healthz, and the queued requests still complete.
func TestOverloadQueueFullRejects(t *testing.T) {
	corp := overloadCorpus(t, 8)
	g := newGateOrigin(corp)
	p := proxy.New(g, proxy.Config{
		Pipeline:      rewrite.NewPipeline(),
		MaxQueue:      2,
		MaxConcurrent: 1,
		QueueDeadline: 5 * time.Second,
	})

	results := make(chan error, 3)
	request := func(i int) {
		_, err := p.Request(context.Background(), proxy.Lookup{
			Client: fmt.Sprintf("c%d", i), Arch: "dvm", Class: fmt.Sprintf("app/Load%03d", i),
		})
		results <- err
	}
	go request(0) // admitted, held at the gate
	waitFor(t, "first flight to reach the origin", func() bool { return g.entered.Load() == 1 })
	go request(1)
	go request(2) // both queue
	waitFor(t, "queue to fill", func() bool { return queueDepth(p) == 2 })

	// Overflow: direct API and HTTP front end agree on the semantics.
	_, err := p.Request(context.Background(), proxy.Lookup{Client: "c3", Arch: "dvm", Class: "app/Load003"})
	if !errors.Is(err, proxy.ErrOverloaded) {
		t.Fatalf("overflow err = %v, want ErrOverloaded", err)
	}
	if got := proxy.StatusFor(err); got != http.StatusTooManyRequests {
		t.Fatalf("StatusFor(overloaded) = %d, want 429", got)
	}
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/classes/app/Load004.class")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}

	// Shed and queue state are visible on both monitoring surfaces.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"dvm_proxy_shed_queue_full_total 2",
		"dvm_proxy_queue_depth 2",
		"dvm_proxy_queue_limit 2",
		"dvm_proxy_slo_burn_ratio",
		"dvm_proxy_admission_wait_seconds",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	h := p.Health()
	if h.Counters["shed_queue_full_total"] != 2 {
		t.Errorf("healthz shed_queue_full_total = %d, want 2", h.Counters["shed_queue_full_total"])
	}
	if h.Gauges["queue_depth"] != 2 || h.Gauges["slo_burn_ratio"] <= 0 {
		t.Errorf("healthz gauges queue_depth=%v slo_burn_ratio=%v, want 2 and >0",
			h.Gauges["queue_depth"], h.Gauges["slo_burn_ratio"])
	}

	// Draining the gate completes every admitted request.
	close(g.release)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	if s := p.Stats(); s.Shed != 2 {
		t.Errorf("Stats.Shed = %d, want 2", s.Shed)
	}
}

// TestOverloadShedsStaleBeforeReject: under queue pressure a request
// whose key has an expired cache entry is answered from that entry —
// degraded freshness — instead of being rejected, and the response is
// flagged Stale+Shed.
func TestOverloadShedsStaleBeforeReject(t *testing.T) {
	corp := overloadCorpus(t, 4)
	g := newGateOrigin(corp)
	g.blocking.Store(false)
	p := proxy.New(g, proxy.Config{
		Pipeline:      rewrite.NewPipeline(),
		CacheEnabled:  true,
		CacheTTL:      time.Millisecond,
		MaxQueue:      2,
		MaxConcurrent: 1,
		QueueDeadline: 5 * time.Second,
	})

	// Prime the key, then let it expire.
	prime, err := p.Request(context.Background(), proxy.Lookup{Client: "warm", Arch: "dvm", Class: "app/Load000"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	// Saturate: one flight holds the only slot, one waiter pressures the
	// queue (depth 1 of 2).
	g.blocking.Store(true)
	entered := g.entered.Load()
	results := make(chan error, 2)
	go func() {
		_, err := p.Request(context.Background(), proxy.Lookup{Client: "c1", Arch: "dvm", Class: "app/Load001"})
		results <- err
	}()
	waitFor(t, "slot holder to reach the origin", func() bool { return g.entered.Load() == entered+1 })
	go func() {
		_, err := p.Request(context.Background(), proxy.Lookup{Client: "c2", Arch: "dvm", Class: "app/Load002"})
		results <- err
	}()
	waitFor(t, "queue pressure", func() bool { return queueDepth(p) == 1 })

	res, err := p.Request(context.Background(), proxy.Lookup{Client: "degraded", Arch: "dvm", Class: "app/Load000"})
	if err != nil {
		t.Fatalf("request with stale fallback was rejected: %v", err)
	}
	if !res.Info.Stale || !res.Info.Shed || !res.Info.CacheHit {
		t.Fatalf("info = %+v, want Stale+Shed+CacheHit", res.Info)
	}
	if string(res.Data) != string(prime.Data) {
		t.Fatal("stale shed served different bytes than the cached transformation")
	}
	s := p.Stats()
	if s.ShedStale != 1 {
		t.Errorf("ShedStale = %d, want 1", s.ShedStale)
	}
	if s.Shed != 0 {
		t.Errorf("Shed = %d, want 0 (nobody was rejected)", s.Shed)
	}
	if s.StaleServed != 1 {
		t.Errorf("StaleServed = %d, want 1", s.StaleServed)
	}

	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
}
