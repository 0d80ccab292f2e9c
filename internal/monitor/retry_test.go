package monitor

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/resilience"
)

// flakyConsole fronts a collector but fails the first n event POSTs.
func flakyConsole(coll *Collector, failFirst int64) http.Handler {
	var posts atomic.Int64
	inner := coll.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/events" && r.Method == http.MethodPost {
			if posts.Add(1) <= failFirst {
				http.Error(w, "console down", http.StatusServiceUnavailable)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

func newSession(t *testing.T, coll *Collector, url string, batchSize int) *RemoteSession {
	t.Helper()
	rs := newRemoteSession(url, batchSize, resilience.Policy{BreakerThreshold: -1}, 0)
	rs.Session = coll.Handshake(ClientInfo{User: "retry"})
	return rs
}

func TestFlushRetriesFailedBatch(t *testing.T) {
	coll := NewCollector()
	ts := httptest.NewServer(flakyConsole(coll, 1))
	defer ts.Close()

	rs := newSession(t, coll, ts.URL, 100)
	for i := 0; i < 5; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"})
	}
	rs.Flush() // console down: batch must be kept, not dropped
	if coll.EventCount() != 0 {
		t.Fatalf("events stored despite failed delivery: %d", coll.EventCount())
	}
	if rs.Err() == nil {
		t.Error("failure not latched")
	}
	rs.mu.Lock()
	retained := len(rs.buf)
	rs.mu.Unlock()
	if retained != 5 {
		t.Fatalf("retained = %d, want 5 (failed batch must be kept for retry)", retained)
	}

	// Next flush delivers the retained batch plus anything new, in order.
	rs.add(wireEvent{Class: "a", Method: "m5", Kind: "note"})
	rs.Flush()
	if coll.EventCount() != 6 {
		t.Fatalf("events after retry = %d, want 6", coll.EventCount())
	}
	evs := coll.Events(rs.Session)
	for i, e := range evs {
		if want := fmt.Sprintf("m%d", i); e.Method != want {
			t.Errorf("event %d = %s, want %s (order not preserved)", i, e.Method, want)
		}
	}
}

// TestFlushRetryPreservesEventTimes: a batch that fails delivery and is
// retried later must land with the timestamps taken when the events
// happened, not when the retry finally succeeded. (The stamp rides the
// wire in wireEvent.Time; the collector only falls back to its own
// clock for a zero stamp.)
func TestFlushRetryPreservesEventTimes(t *testing.T) {
	coll := NewCollector()
	ts := httptest.NewServer(flakyConsole(coll, 1))
	defer ts.Close()

	rs := newSession(t, coll, ts.URL, 100)
	for i := 0; i < 3; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"})
	}
	buffered := time.Now()
	rs.Flush() // fails; batch retained with its stamps
	time.Sleep(30 * time.Millisecond)
	rs.Flush() // delivered on retry
	evs := coll.Events(rs.Session)
	if len(evs) != 3 {
		t.Fatalf("events after retry = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
		if e.Time.After(buffered) {
			t.Errorf("event %d stamped %v, after buffering finished at %v: retry re-stamped it", i, e.Time, buffered)
		}
	}
}

func TestFlushRetentionBounded(t *testing.T) {
	coll := NewCollector()
	ts := httptest.NewServer(flakyConsole(coll, 1<<30)) // console never recovers
	defer ts.Close()

	rs := newSession(t, coll, ts.URL, 64)
	total := maxRetainedEvents + 500
	for i := 0; i < total; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"})
	}
	rs.Flush()
	rs.mu.Lock()
	retained := len(rs.buf)
	newest := ""
	if retained > 0 {
		newest = rs.buf[retained-1].Method
	}
	rs.mu.Unlock()
	if retained > maxRetainedEvents {
		t.Fatalf("retained = %d events, cap is %d (dead console must not grow memory unboundedly)",
			retained, maxRetainedEvents)
	}
	if want := fmt.Sprintf("m%d", total-1); newest != want {
		t.Errorf("newest retained = %s, want %s (oldest must be dropped first)", newest, want)
	}
}

// TestDeadConsoleIsPostedOncePerBatch: after a failed flush the buffer
// stays at least one batch long, and add still flushes only when a batch
// of new events has arrived since the last attempt — not on every event,
// which would re-send the whole retained buffer each time.
func TestDeadConsoleIsPostedOncePerBatch(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, "console down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	rs := newSession(t, NewCollector(), ts.URL, 64)
	for i := 0; i < 1000; i++ {
		rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("m%d", i), Kind: "note"})
	}
	if got := posts.Load(); got > 1000/64+1 {
		t.Errorf("1000 events at batch 64 made %d POSTs to a dead console, want at most %d", got, 1000/64+1)
	}
	rs.mu.Lock()
	retained := len(rs.buf)
	rs.mu.Unlock()
	if retained != 1000 {
		t.Errorf("retained = %d events, want all 1000 (under the cap, nothing is dropped)", retained)
	}
}

// TestRemoteSessionConcurrentAddFlush exercises the mutex guard: audit
// hooks append from many goroutines while Flush/Close run concurrently.
// Run under -race.
func TestRemoteSessionConcurrentAddFlush(t *testing.T) {
	coll := NewCollector()
	ts := httptest.NewServer(coll.Handler())
	defer ts.Close()

	rs := newSession(t, coll, ts.URL, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rs.add(wireEvent{Class: "a", Method: fmt.Sprintf("g%d-m%d", g, i), Kind: "note"})
				if i%10 == 0 {
					rs.Flush()
				}
				_ = rs.Err()
			}
		}(g)
	}
	wg.Wait()
	rs.Close()
	if rs.Err() != nil {
		t.Fatalf("delivery error: %v", rs.Err())
	}
	if got := coll.EventCount(); got != 400 {
		t.Errorf("events = %d, want 400 (nothing lost or duplicated)", got)
	}
}
