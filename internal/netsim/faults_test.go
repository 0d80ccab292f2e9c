package netsim

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// drawSequence records the fault decisions a spec produces over n calls.
func drawSequence(spec FaultSpec, n int) []string {
	f := NewFaultyOrigin(MapFetcher{"k": []byte("0123456789")}, spec)
	out := make([]string, n)
	for i := range out {
		_, err := f.Fetch(context.Background(), "k")
		switch {
		case err == nil:
			out[i] = "ok"
		case errors.Is(err, ErrInjected):
			out[i] = "fault"
		default:
			out[i] = "other"
		}
	}
	return out
}

func TestFaultyOriginDeterministicSeed(t *testing.T) {
	spec := FaultSpec{Seed: 7, ErrorRate: 0.3, PartialRate: 0.1}
	a := drawSequence(spec, 200)
	b := drawSequence(spec, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %s vs %s — same seed must replay identically", i, a[i], b[i])
		}
	}
	c := drawSequence(FaultSpec{Seed: 8, ErrorRate: 0.3, PartialRate: 0.1}, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestFaultyOriginErrorRate(t *testing.T) {
	f := NewFaultyOrigin(MapFetcher{"k": []byte("x")}, FaultSpec{Seed: 1, ErrorRate: 0.3})
	const n = 1000
	for i := 0; i < n; i++ {
		_, _ = f.Fetch(context.Background(), "k")
	}
	s := f.Stats()
	if s.Calls != n {
		t.Fatalf("calls = %d, want %d", s.Calls, n)
	}
	if s.Errors < n/5 || s.Errors > n/2 {
		t.Fatalf("errors = %d out of %d, want roughly 30%%", s.Errors, n)
	}
}

func TestFaultyOriginHangHonorsContext(t *testing.T) {
	f := NewFaultyOrigin(MapFetcher{"k": []byte("x")}, FaultSpec{Seed: 1, HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.Fetch(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("hang did not release promptly on ctx cancellation")
	}
	if f.Stats().Hangs != 1 {
		t.Fatalf("hangs = %d, want 1", f.Stats().Hangs)
	}
}

func TestFaultyOriginPartialRead(t *testing.T) {
	f := NewFaultyOrigin(MapFetcher{"k": []byte("0123456789")}, FaultSpec{Seed: 1, PartialRate: 1})
	b, err := f.Fetch(context.Background(), "k")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if len(b) != 5 {
		t.Fatalf("partial returned %d bytes, want 5", len(b))
	}
}

// client is a net/http client over dial that opens a connection per
// request, so each request draws its link's fault exactly once.
func client(dial Dialer) *http.Client {
	return &http.Client{Transport: &http.Transport{DialContext: dial, DisableKeepAlives: true}, Timeout: 5 * time.Second}
}

func TestFaultyTransportErrorAndRecovery(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("z", 1024))
	}))
	defer ts.Close()

	ft := NewFaultyTransport(nil, FaultSpec{Seed: 3, ErrorRate: 0.5})
	client := client(ft.Dial)
	var ok, failed int
	for i := 0; i < 100; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			failed++
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(body) == 1024 {
			ok++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("ok=%d failed=%d, want a mix at 50%% error rate", ok, failed)
	}
	s := ft.Stats()
	if s.Calls != 100 || s.Errors != int64(failed) {
		t.Fatalf("stats = %+v, want 100 calls and %d errors", s, failed)
	}
}

// TestFaultyTransportPartialBody: a truncated answer ends (EOF) after its
// head and half its body.
func TestFaultyTransportPartialBody(t *testing.T) {
	payload := strings.Repeat("z", 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		io.WriteString(w, payload)
	}))
	defer ts.Close()

	ft := NewFaultyTransport(nil, FaultSpec{Seed: 3, PartialRate: 1})
	resp, err := client(ft.Dial).Get(ts.URL)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatal("partial body read succeeded, want mid-body error")
	}
	if len(body) != len(payload)/2 {
		t.Fatalf("read %d bytes, want the first half, %d", len(body), len(payload)/2)
	}
}

// TestFaultyTransportDropsTheRequest: a request the transport fails
// itself — an injected error, a hang, a cut link — fails with an injected
// fault or at its deadline, and never reaches the server.
func TestFaultyTransportDropsTheRequest(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	defer ts.Close()
	lf := NewLinkFaults(nil)
	lf.Cut(ts.Listener.Addr().String())
	for _, tc := range []struct {
		name string
		dial Dialer
	}{
		{"error", NewFaultyTransport(nil, FaultSpec{ErrorRate: 0.99}).Dial},
		{"hang", NewFaultyTransport(nil, FaultSpec{HangRate: 1, HangFor: time.Millisecond}).Dial},
		{"hang to the deadline", NewFaultyTransport(nil, FaultSpec{HangRate: 1}).Dial},
		{"cut link", lf.Dial},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/peer/v2/batch", strings.NewReader("frame"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client(tc.dial).Do(req); !errors.Is(err, ErrInjected) && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want an injected fault or the deadline", tc.name, err)
		}
		cancel()
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the server saw %d requests, want none", n)
	}
}
