package proxy_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

// Chaos suite: injected origin faults must degrade the proxy along its
// declared failure semantics — stale-if-error for availability, breaker
// trips surfaced in Stats and /healthz, and distinct HTTP statuses per
// failure class. Deterministic seeds; safe under -race.

// switchOrigin lets a test swap the upstream mid-run (healthy -> faulty).
type switchOrigin struct{ cur atomic.Pointer[proxy.Origin] }

func newSwitchOrigin(o proxy.Origin) *switchOrigin {
	s := &switchOrigin{}
	s.set(o)
	return s
}

func (s *switchOrigin) set(o proxy.Origin) { s.cur.Store(&o) }

func (s *switchOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	return (*s.cur.Load()).Fetch(ctx, name)
}

// failingOrigin fails every fetch with a transient (retryable) error.
type failingOrigin struct{ calls atomic.Int64 }

func (f *failingOrigin) Fetch(context.Context, string) ([]byte, error) {
	f.calls.Add(1)
	return nil, errors.New("origin unreachable")
}

// hangingOrigin blocks until the fetch context is cancelled.
type hangingOrigin struct{}

func (hangingOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestStaleIfErrorServesExpiredEntry(t *testing.T) {
	org := origin(t)
	sw := newSwitchOrigin(org)
	p := proxy.New(sw, proxy.Config{
		Pipeline:     rewrite.NewPipeline(),
		CacheEnabled: true,
		CacheTTL:     5 * time.Millisecond,
	})
	wantRes, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"})
	if err != nil {
		t.Fatalf("prime: %v", err)
	}

	sw.set(&failingOrigin{})
	time.Sleep(10 * time.Millisecond) // let the entry expire

	gotRes, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"})
	if err != nil {
		t.Fatalf("degraded request failed instead of serving stale: %v", err)
	}
	if string(gotRes.Data) != string(wantRes.Data) {
		t.Fatal("stale response differs from the cached transformation")
	}
	s := p.Stats()
	if s.StaleServed != 1 {
		t.Fatalf("StaleServed = %d, want 1", s.StaleServed)
	}

	// Not-found is a definitive answer, never a stale fallback.
	sw.set(proxy.MapOrigin{})
	time.Sleep(10 * time.Millisecond)
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); !errors.Is(err, proxy.ErrNotFound) {
		t.Fatalf("expired entry + not-found origin: err = %v, want ErrNotFound", err)
	}
}

// TestChaosThirtyPercentErrorOrigin is the acceptance scenario: after a
// warm cache, a 30%-error origin must not fail a single request —
// expired entries ride through on stale-if-error.
func TestChaosThirtyPercentErrorOrigin(t *testing.T) {
	org := origin(t)
	sw := newSwitchOrigin(org)
	p := proxy.New(sw, proxy.Config{
		Pipeline:     rewrite.NewPipeline(),
		CacheEnabled: true,
		CacheTTL:     time.Millisecond,
		Origin:       resilience.Policy{Retries: 1, BreakerThreshold: -1}, // isolate stale-if-error from breaker fail-fast
	})
	for _, class := range []string{"app/Main", "app/Dep"} {
		if _, err := p.Request(context.Background(), proxy.Lookup{Client: "warm", Arch: "dvm", Class: class}); err != nil {
			t.Fatalf("prime %s: %v", class, err)
		}
	}

	faulty := netsim.NewFaultyOrigin(org, netsim.FaultSpec{Seed: 42, ErrorRate: 0.3})
	sw.set(faulty)

	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				class := []string{"app/Main", "app/Dep"}[i%2]
				if _, err := p.Request(context.Background(), proxy.Lookup{Client: fmt.Sprintf("c%d", c), Arch: "dvm", Class: class}); err != nil {
					failures.Add(1)
				}
				time.Sleep(2 * time.Millisecond) // let entries expire between rounds
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed despite warm cache + stale-if-error", n)
	}
	s := p.Stats()
	if faulty.Stats().Errors > 0 && s.StaleServed == 0 {
		t.Fatalf("origin injected %d errors but StaleServed = 0", faulty.Stats().Errors)
	}
}

func TestProxyBreakerTripsAndRecovers(t *testing.T) {
	org := origin(t)
	failing := &failingOrigin{}
	sw := newSwitchOrigin(failing)
	p := proxy.New(sw, proxy.WithBreakerCooldown(proxy.Config{
		Pipeline: rewrite.NewPipeline(),
		Origin:   resilience.Policy{BreakerThreshold: 2},
	}, 30*time.Millisecond))

	for i := 0; i < 2; i++ {
		if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err == nil {
			t.Fatal("request against dead origin succeeded")
		}
	}
	calls := failing.calls.Load()
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("breaker should be open: err = %v", err)
	}
	if failing.calls.Load() != calls {
		t.Fatal("open breaker still let a fetch through")
	}
	s := p.Stats()
	if s.Breaker.Trips < 1 || s.Breaker.State != "open" {
		t.Fatalf("breaker stats = %+v, want >=1 trip, open", s.Breaker)
	}

	// Heal the origin; after the cooldown a half-open probe closes it.
	sw.set(org)
	time.Sleep(35 * time.Millisecond)
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatalf("post-recovery request: %v", err)
	}
	if got := p.Stats().Breaker.State; got != "closed" {
		t.Fatalf("breaker state after recovery = %s, want closed", got)
	}
}

func TestHandlerErrorMapping(t *testing.T) {
	cases := []struct {
		name       string
		cfg        proxy.Config
		origin     proxy.Origin
		prep       func(p *proxy.Proxy) // drive the proxy into the target state
		wantStatus int
		wantRetry  bool
	}{
		{
			name:       "not found -> 404",
			origin:     proxy.MapOrigin{},
			wantStatus: http.StatusNotFound,
		},
		{
			name:       "origin deadline -> 504",
			origin:     hangingOrigin{},
			cfg:        proxy.Config{Origin: resilience.Policy{Timeout: 10 * time.Millisecond}},
			wantStatus: http.StatusGatewayTimeout,
		},
		{
			name:   "breaker open -> 503 with Retry-After",
			origin: &failingOrigin{},
			cfg:    proxy.WithBreakerCooldown(proxy.Config{Origin: resilience.Policy{BreakerThreshold: 1}}, time.Minute),
			prep: func(p *proxy.Proxy) {
				_, _ = p.Request(context.Background(), proxy.Lookup{Client: "prep", Arch: "dvm", Class: "app/Trip"})
			},
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  true,
		},
		{
			name:       "other upstream failure -> 502",
			origin:     &failingOrigin{},
			wantStatus: http.StatusBadGateway,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Pipeline = rewrite.NewPipeline()
			p := proxy.New(tc.origin, cfg)
			if tc.prep != nil {
				tc.prep(p)
			}
			ts := httptest.NewServer(p.Handler())
			defer ts.Close()

			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/classes/app/Missing.class", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantRetry && resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 missing Retry-After header")
			}
		})
	}
}

func TestHealthzExposesBreakerAndStale(t *testing.T) {
	p := proxy.New(&failingOrigin{}, proxy.WithBreakerCooldown(proxy.Config{
		Pipeline: rewrite.NewPipeline(),
		Origin:   resilience.Policy{BreakerThreshold: 1},
	}, time.Minute))
	_, _ = p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/X"})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	h, err := telemetry.ParseHealth(body)
	if err != nil {
		t.Fatalf("healthz did not parse as the shared schema: %v\n%s", err, body)
	}
	if h.Service != "proxy" {
		t.Fatalf("healthz service = %q, want proxy", h.Service)
	}
	if h.Status != telemetry.StatusDegraded {
		t.Fatalf("healthz status = %q with the origin breaker open, want degraded", h.Status)
	}
	b, ok := h.Breakers["origin"]
	if !ok {
		t.Fatalf("healthz missing origin breaker:\n%s", body)
	}
	if b.State != "open" || b.Trips != 1 {
		t.Fatalf("origin breaker = %+v, want state=open trips=1", b)
	}
	if got := h.Counters["stale_served_total"]; got != 0 {
		t.Fatalf("stale_served_total = %d, want 0 (nothing cached to serve stale)", got)
	}
}

// TestCoalescedFollowerHonorsOwnContext: a follower with an expired
// context must detach from the flight without affecting the leader.
func TestCoalescedFollowerHonorsOwnContext(t *testing.T) {
	org := origin(t)
	release := make(chan struct{})
	slow := proxy.DelayedOrigin{Origin: org, Delay: func(string) { <-release }}
	p := proxy.New(slow, proxy.Config{Pipeline: rewrite.NewPipeline(), CacheEnabled: true})

	leaderDone := make(chan error, 1)
	go func() {
		_, err := p.Request(context.Background(), proxy.Lookup{Client: "leader", Arch: "dvm", Class: "app/Dep"})
		leaderDone <- err
	}()
	// Wait for the leader to own the flight.
	deadline := time.Now().Add(time.Second)
	for p.Stats().OriginFetches == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := p.Request(ctx, proxy.Lookup{Client: "follower", Arch: "dvm", Class: "app/Dep"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower gave up: %v", err)
	}
}
