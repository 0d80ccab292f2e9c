package security

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvm/internal/telemetry"
)

func TestRemoteManagerFetchAndCache(t *testing.T) {
	vs := NewVersionedServer(NewServer(testPolicy(t)))
	ts := httptest.NewServer(vs.Handler())
	defer ts.Close()

	rm := NewRemoteManager(ts.URL, "apps")
	defer rm.Close()
	if !rm.allowed("property.get", "user.name") {
		t.Fatal("allowed check failed over HTTP")
	}
	for i := 0; i < 10; i++ {
		if !rm.allowed("property.get", "user.name") {
			t.Fatal("cached check failed")
		}
	}
	if rm.Downloads != 1 {
		t.Errorf("downloads = %d, want 1", rm.Downloads)
	}
	if rm.allowed("file.open", "/etc/passwd") {
		t.Error("denied target allowed")
	}
}

func TestRemoteManagerInvalidationPush(t *testing.T) {
	vs := NewVersionedServer(NewServer(testPolicy(t)))
	ts := httptest.NewServer(vs.Handler())
	defer ts.Close()

	rm := NewRemoteManager(ts.URL, "apps")
	defer rm.Close()
	if !rm.allowed("file.open", "/tmp/x") {
		t.Fatal("initial policy should allow")
	}
	// Central update: drop the file.open grant.
	p2, err := ParsePolicy([]byte(`
<policy>
  <domain id="apps"><grant permission="property.get" target="*"/></domain>
  <assign domain="apps" codebase="app/*"/>
</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	vs.UpdatePolicy(p2)

	// The poller invalidates shortly; wait for it.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if !rm.allowed("file.open", "/tmp/x") {
			return // revoked — invalidation propagated
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("policy update never propagated to the remote manager")
}

func TestRemoteManagerFailsClosedWhenServerGone(t *testing.T) {
	vs := NewVersionedServer(NewServer(testPolicy(t)))
	ts := httptest.NewServer(vs.Handler())
	rm := NewRemoteManager(ts.URL, "apps")
	defer rm.Close()
	ts.Close() // server vanishes before the first fetch
	if rm.allowed("property.get", "user.name") {
		t.Fatal("manager allowed access with no reachable server")
	}
}

func TestVersionedServerPollBlocksAndWakes(t *testing.T) {
	vs := NewVersionedServer(NewServer(testPolicy(t)))
	start := time.Now()
	done := make(chan int64, 1)
	go func() {
		done <- vs.waitBeyond(context.Background(), vs.Version(), 5*time.Second)
	}()
	time.Sleep(30 * time.Millisecond)
	p2 := testPolicy(t)
	vs.UpdatePolicy(p2)
	select {
	case v := <-done:
		if v <= 1 {
			t.Errorf("version = %d", v)
		}
		if time.Since(start) > 2*time.Second {
			t.Error("poll did not wake promptly")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("poll never woke")
	}
}

// TestSecdMetricsIndependentOfTracing: untraced /domain and /decide calls
// feed domain_seconds and decide_seconds with real durations and get no
// span header back; a traced call gets its span.
func TestSecdMetricsIndependentOfTracing(t *testing.T) {
	vs := NewVersionedServer(NewServer(testPolicy(t)))
	ts := httptest.NewServer(vs.Handler())
	defer ts.Close()
	call := func(path, trace string) http.Header {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if trace != "" {
			req.Header.Set(telemetry.TraceHeader, trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
		return resp.Header
	}
	const n = 5
	paths := map[string]string{
		"domain_seconds": "/domain?sid=apps",
		"decide_seconds": "/decide?sid=apps&perm=property.get&target=user.name",
	}
	for hist, path := range paths {
		for i := 0; i < n; i++ {
			if v := call(path, "").Values(telemetry.TraceSpansHeader); v != nil {
				t.Errorf("untraced %s answered with spans %q", path, v)
			}
		}
		if s := vs.Telemetry().Histogram(hist, nil).Snapshot(); s.Count() != n || s.Sum <= 0 {
			t.Errorf("%s: count %d sum %v, want count %d and a positive sum", hist, s.Count(), s.Sum, n)
		}
		spans, err := telemetry.DecodeSpans(call(path, "abc").Get(telemetry.TraceSpansHeader))
		if err != nil || len(spans) != 1 {
			t.Errorf("traced %s answered with spans %v (err %v), want one", path, spans, err)
		}
	}
}

// TestSecdHealthzSharedSchema: the security daemon serves the same
// versioned health JSON as every other daemon, with its policy version
// and waiter count as gauges, plus Prometheus metrics on /metrics.
func TestSecdHealthzSharedSchema(t *testing.T) {
	vs := NewVersionedServer(NewServer(testPolicy(t)))
	vs.UpdatePolicy(testPolicy(t)) // version 2
	ts := httptest.NewServer(vs.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h, err := telemetry.ParseHealth(body)
	if err != nil {
		t.Fatalf("healthz did not parse as the shared schema: %v\n%s", err, body)
	}
	if h.Service != "secd" || h.Status != telemetry.StatusOK {
		t.Errorf("service/status = %q/%q, want secd/ok", h.Service, h.Status)
	}
	if got := h.Gauges["policy_version"]; got != 2 {
		t.Errorf("policy_version gauge = %v, want 2", got)
	}
	if got := h.Gauges["poll_waiters"]; got != 0 {
		t.Errorf("poll_waiters gauge = %v, want 0", got)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mbody), "dvm_secd_policy_version 2") {
		t.Errorf("metrics missing policy version gauge:\n%s", mbody)
	}
}
