package security

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/resilience"
)

// Chaos suite: the security service is trust-critical and must fail
// CLOSED — an unreachable server denies, never allows — while a
// returning server restores normal decisions. Deterministic; safe
// under -race.

func chaosPolicy(t *testing.T) *Policy {
	t.Helper()
	pol, err := ParsePolicy([]byte(`
<policy>
  <domain id="apps"><grant permission="file.read" target="/tmp/*"/></domain>
  <assign domain="apps" codebase="app/*"/>
</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// flappingHandler serves the security server but can be switched dead
// (refusing with 503) at runtime.
type flappingHandler struct {
	inner http.Handler
	dead  atomic.Bool
	hits  atomic.Int64
}

func (f *flappingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	if f.dead.Load() && r.URL.Path != "/poll" {
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestSecurityFailsClosedDuringOutageAndRecovers(t *testing.T) {
	vs := NewVersionedServer(NewServer(chaosPolicy(t)))
	fh := &flappingHandler{inner: vs.Handler()}
	ts := httptest.NewServer(fh)
	defer ts.Close()

	var degraded atomic.Int64
	fh.dead.Store(true) // outage from the very first touch

	rm := NewRemoteManagerWith(ts.URL, "apps", RemoteOptions{
		Policy:   resilience.Policy{Timeout: 500 * time.Millisecond, BreakerThreshold: 2},
		cooldown: 30 * time.Millisecond,
		OnDegraded: func(sid, perm, target string, err error) {
			degraded.Add(1)
		},
	})
	defer rm.Close()

	// During the outage every check must deny — including ones the
	// policy would grant — and none may be cached as policy decisions.
	for i := 0; i < 5; i++ {
		if rm.Manager.allowed("file.read", "/tmp/a") {
			t.Fatal("check ALLOWED while security server unreachable (must fail closed)")
		}
	}
	if degraded.Load() == 0 {
		t.Fatal("no Degraded records audited during outage")
	}
	rm.Manager.mu.Lock()
	denies := rm.Manager.DegradedDenies
	rm.Manager.mu.Unlock()
	if denies == 0 {
		t.Fatal("DegradedDenies = 0 during outage")
	}

	// Server heals; after the breaker cooldown the next first-touch
	// downloads the real rules and grants flow again.
	fh.dead.Store(false)
	time.Sleep(40 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !rm.Manager.allowed("file.read", "/tmp/a") {
		if time.Now().After(deadline) {
			t.Fatal("grant never recovered after server came back")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rm.Manager.allowed("file.write", "/etc/passwd") {
		t.Fatal("recovery granted something the policy denies")
	}
}

func TestSecurityBreakerStopsHammeringDeadServer(t *testing.T) {
	vs := NewVersionedServer(NewServer(chaosPolicy(t)))
	fh := &flappingHandler{inner: vs.Handler()}
	fh.dead.Store(true)
	ts := httptest.NewServer(fh)
	defer ts.Close()

	rm := NewRemoteManagerWith(ts.URL, "apps", RemoteOptions{
		Policy:   resilience.Policy{Timeout: 200 * time.Millisecond, BreakerThreshold: 2},
		cooldown: time.Minute,
	})
	defer rm.Close()

	for i := 0; i < 20; i++ {
		if rm.Manager.allowed("file.read", "/tmp/a") {
			t.Fatal("allowed during outage")
		}
	}
	c := rm.Breaker().Counts()
	if c.State != "open" || c.Trips < 1 {
		t.Fatalf("breaker = %+v, want open with >=1 trip", c)
	}
	// 20 checks but only ~threshold actual fetch attempts hit /domain:
	// the open breaker answers the rest locally (still denying).
	var domainHits int64
	_ = domainHits // hits include the background poller; bound loosely
	if fh.hits.Load() > 10 {
		t.Fatalf("dead server hit %d times; breaker should fail fast", fh.hits.Load())
	}
}

func TestPollWaiterReleasedOnClientDisconnect(t *testing.T) {
	vs := NewVersionedServer(NewServer(chaosPolicy(t)))
	ts := httptest.NewServer(vs.Handler())
	defer ts.Close()

	const pollers = 8
	var wg sync.WaitGroup
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/poll?since=1", nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Waiters register...
	deadline := time.Now().Add(time.Second)
	for vs.Waiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	// ...and every one must be deregistered once its client hangs up,
	// without waiting for the 25s poll timeout or a policy update.
	deadline = time.Now().Add(2 * time.Second)
	for vs.Waiters() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters leaked after client disconnect", vs.Waiters())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPollStillWakesOnPolicyUpdate(t *testing.T) {
	vs := NewVersionedServer(NewServer(chaosPolicy(t)))
	ts := httptest.NewServer(vs.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/poll?since=1")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(time.Second)
	for vs.Waiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	vs.UpdatePolicy(chaosPolicy(t))
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("poller not woken by policy update")
	}
	if vs.Waiters() != 0 {
		t.Fatalf("waiters = %d after wake, want 0", vs.Waiters())
	}
}
