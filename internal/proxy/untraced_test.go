package proxy_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

// TestFrontEndTracesOnlyWhenAsked: a request without X-DVM-Trace gets
// neither trace header back; one that sends it gets its ID and this
// hop's spans, as before.
func TestFrontEndTracesOnlyWhenAsked(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: fullPipeline(t), CacheEnabled: true})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	get := func(trace string) http.Header {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/classes/app/Dep.class", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-DVM-Arch", "dvm")
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
			t.Fatalf("status %s", resp.Status)
		}
		return resp.Header
	}

	for _, h := range []http.Header{get(""), get("")} { // a miss, then a hit
		if v := h.Values(telemetry.TraceHeader); v != nil {
			t.Errorf("untraced response carries %s: %q", telemetry.TraceHeader, v)
		}
		if v := h.Values(telemetry.TraceSpansHeader); v != nil {
			t.Errorf("untraced response carries %s: %q", telemetry.TraceSpansHeader, v)
		}
	}

	h := get("abc123")
	if got := h.Get(telemetry.TraceHeader); got != "abc123" {
		t.Errorf("traced response %s = %q, want the caller's ID", telemetry.TraceHeader, got)
	}
	spans, err := telemetry.DecodeSpans(h.Get(telemetry.TraceSpansHeader))
	if err != nil || len(spans) == 0 || spans[0].Stage != "proxy.request" {
		t.Errorf("traced response spans = %v (err %v), want the proxy.request span", spans, err)
	}
}

// TestMetricsIndependentOfTracing: untraced requests feed the histograms
// and Stats().ProxyTime with real durations — the stage timers measure
// whether or not anyone asked for a trace.
func TestMetricsIndependentOfTracing(t *testing.T) {
	const n = 6
	p := proxy.New(origin(t), proxy.Config{Pipeline: fullPipeline(t)}) // cache off: every load is cold
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	loader := proxy.HTTPLoader(ts.URL, "c", "dvm")
	for i := 0; i < n; i++ {
		if _, err := loader.Load("app/Dep"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"request_seconds", "pipeline_seconds", "origin_fetch_seconds"} {
		s := p.Telemetry().Histogram(name, nil).Snapshot()
		if s.Count() != n || s.Sum <= 0 {
			t.Errorf("%s: count %d sum %v, want count %d and a positive sum", name, s.Count(), s.Sum, n)
		}
	}
	if pt := p.Stats().ProxyTime; pt <= 0 {
		t.Errorf("Stats().ProxyTime = %v after %d untraced misses", pt, n)
	}
}

// TestUntracedHitAllocations pins what an untraced in-process cache hit
// allocates: the cache key and nothing for telemetry (it was 7 when every
// request minted a trace).
func TestUntracedHitAllocations(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: rewrite.NewPipeline(), CacheEnabled: true})
	ctx := context.Background()
	l := proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}
	if _, err := p.Request(ctx, l); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if res, err := p.Request(ctx, l); err != nil || !res.Info.CacheHit || res.Trace != nil {
			t.Fatalf("hit: err=%v cacheHit=%v trace=%v", err, res.Info.CacheHit, res.Trace)
		}
	})
	if allocs > 2 {
		t.Errorf("untraced cache hit allocates %.0f times, want <= 2", allocs)
	}
}
