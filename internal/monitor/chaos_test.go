package monitor

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/resilience"
)

// Chaos suite: monitoring is auxiliary and must fail OPEN — a dead or
// hung console costs bounded memory and bounded time, never blocks
// execution, and drops (counted) rather than stalls. Safe under -race.

func chaosSession(t *testing.T, url string, batch int, p resilience.Policy, cooldown time.Duration) *RemoteSession {
	t.Helper()
	rs := newRemoteSession(url, batch, p, cooldown)
	rs.Session = "sess-chaos"
	return rs
}

func TestMonitorBreakerStopsHittingDeadConsole(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "console down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	rs := chaosSession(t, ts.URL, 1, resilience.Policy{BreakerThreshold: 2}, time.Minute)
	for i := 0; i < 50; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"}) // batch=1: every add flushes
	}
	if got := hits.Load(); got > 3 {
		t.Fatalf("dead console hit %d times; breaker should have stopped after 2", got)
	}
	if rs.Err() == nil {
		t.Fatal("delivery failure not latched")
	}
	if got := rs.Breaker().Counts(); got.State != "open" {
		t.Fatalf("breaker = %+v, want open", got)
	}
	// Events are retained for a later retry, not lost below the cap.
	rs.mu.Lock()
	retained := len(rs.buf)
	rs.mu.Unlock()
	if retained != 50 {
		t.Fatalf("retained = %d, want all 50 while under the cap", retained)
	}
}

func TestMonitorDropsOldestPastCapAndCounts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "console down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	rs := chaosSession(t, ts.URL, 64, resilience.Policy{BreakerThreshold: 1}, time.Minute)
	total := maxRetainedEvents + 500
	for i := 0; i < total; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"})
	}
	rs.Flush()
	rs.mu.Lock()
	retained := len(rs.buf)
	oldest := rs.buf[0].Method
	rs.mu.Unlock()
	if retained > maxRetainedEvents {
		t.Fatalf("retained %d events, cap is %d", retained, maxRetainedEvents)
	}
	if rs.Dropped() == 0 {
		t.Fatal("events were discarded but Dropped() = 0")
	}
	if rs.Dropped()+int64(retained) != int64(total) {
		t.Fatalf("dropped(%d) + retained(%d) != total(%d)", rs.Dropped(), retained, total)
	}
	if oldest == "m0" {
		t.Fatal("cap should drop oldest first, but m0 survived")
	}
}

func TestMonitorHungConsoleDoesNotBlockExecution(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // consume so the server notices a client disconnect
		select {                    // hang until the client gives up
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release) // unblock any handler still waiting, then let Close reap it

	rs := chaosSession(t, ts.URL, 1, resilience.Policy{Timeout: 50 * time.Millisecond, BreakerThreshold: 1}, time.Minute)
	start := time.Now()
	for i := 0; i < 20; i++ {
		rs.add(wireEvent{Class: "a", Method: "m", Kind: "note"})
	}
	elapsed := time.Since(start)
	// One timed-out probe trips the breaker; the other 19 adds must not
	// wait on the network at all.
	if elapsed > 2*time.Second {
		t.Fatalf("20 adds against a hung console took %v; monitoring blocked execution", elapsed)
	}
	if rs.Err() == nil {
		t.Fatal("hung delivery not latched as error")
	}
}

func TestMonitorRecoversAfterConsoleReturns(t *testing.T) {
	coll := NewCollector()
	var dead atomic.Bool
	inner := coll.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			http.Error(w, "outage", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rs := chaosSession(t, ts.URL, 100, resilience.Policy{BreakerThreshold: 1}, 20*time.Millisecond)
	rs.Session = coll.Handshake(ClientInfo{User: "chaos"})

	dead.Store(true)
	for i := 0; i < 5; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"})
	}
	rs.Flush()
	if coll.EventCount() != 0 {
		t.Fatal("events delivered during outage")
	}

	dead.Store(false)
	time.Sleep(25 * time.Millisecond) // past breaker cooldown
	rs.Flush()
	if got := coll.EventCount(); got != 5 {
		t.Fatalf("delivered %d events after recovery, want all 5 retained ones", got)
	}
	if got := rs.Breaker().Counts().State; got != "closed" {
		t.Fatalf("breaker = %s after successful delivery, want closed", got)
	}
}

// TestMonitorAbandonedFlushIsNoFailure: a flush whose caller gave up
// while the console was still answering settles with Cancel — the
// breaker counts no failure, even at a threshold of one — and its batch
// waits for the next flush.
func TestMonitorAbandonedFlushIsNoFailure(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	rs := chaosSession(t, ts.URL, 100, resilience.Policy{BreakerThreshold: 1}, time.Minute)
	rs.add(wireEvent{Class: "a", Method: "m", Kind: "note"})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	rs.FlushContext(ctx)
	if c := rs.Breaker().Counts(); c.Failures != 0 || c.State != "closed" {
		t.Fatalf("breaker after an abandoned flush = %+v, want closed with no failure", c)
	}
	rs.mu.Lock()
	retained := len(rs.buf)
	rs.mu.Unlock()
	if retained != 1 {
		t.Fatalf("retained = %d, want the abandoned batch's 1 event", retained)
	}
}
