package proxy

// Unit tests for the admission engine itself: shed ordering, fair
// shares, deadline-aware drops, and the queue mechanics. End-to-end
// overload behavior through Proxy.Request lives in
// overload_chaos_test.go.

import (
	"context"
	"errors"
	"testing"
	"time"

	"dvm/internal/telemetry"
)

func newTestAdmission(limit, maxQueue int, deadline time.Duration, svc func() time.Duration) *admission {
	reg := telemetry.NewRegistry("proxy")
	if svc == nil {
		svc = func() time.Duration { return 0 }
	}
	return newAdmission(Config{
		MaxConcurrent: limit,
		MaxQueue:      maxQueue,
		QueueDeadline: deadline,
	}, reg, svc, reg.Counter("requests_total"))
}

// waitQueued polls until the admission queue holds want waiters.
func waitQueued(t *testing.T, a *admission, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		q := a.queued
		a.mu.Unlock()
		if q == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d waiters", want)
}

func mustAdmit(t *testing.T, a *admission, client string) {
	t.Helper()
	out, err := a.acquire(context.Background(), client, false, -1)
	if out != admitOK || err != nil {
		t.Fatalf("acquire(%s) = %v, %v; want admitOK", client, out, err)
	}
}

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *admission
	for i := 0; i < 100; i++ {
		if out, err := a.acquire(context.Background(), "c", false, -1); out != admitOK || err != nil {
			t.Fatalf("nil admission refused: %v, %v", out, err)
		}
		a.release()
	}
}

func TestAdmissionGrantsFreedSlotToWaiter(t *testing.T) {
	a := newTestAdmission(1, 4, 0, nil)
	mustAdmit(t, a, "c1")
	got := make(chan error, 1)
	go func() {
		out, err := a.acquire(context.Background(), "c2", false, -1)
		if out != admitOK {
			err = errors.New("waiter not admitted")
		}
		got <- err
	}()
	waitQueued(t, a, 1)
	a.release()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	if n := a.m.Admitted.Load(); n != 2 {
		t.Errorf("admitted_total = %d, want 2", n)
	}
	a.release()
}

func TestAdmissionQueueFullRejects(t *testing.T) {
	a := newTestAdmission(1, 1, 0, nil)
	mustAdmit(t, a, "c1")
	go a.acquire(context.Background(), "c2", false, -1)
	waitQueued(t, a, 1)
	out, err := a.acquire(context.Background(), "c3", false, -1)
	if out != admitShed || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire over full queue = %v, %v; want admitShed/ErrOverloaded", out, err)
	}
	if n := a.m.ShedFull.Load(); n != 1 {
		t.Errorf("shed_queue_full_total = %d, want 1", n)
	}
	a.release() // drain the queued waiter
	a.release()
}

// TestAdmissionStaleBeforeReject is the shed ordering contract: under
// queue pressure a request that a stale cache entry could answer is
// shed onto that entry (still served) before anyone is rejected.
func TestAdmissionStaleBeforeReject(t *testing.T) {
	a := newTestAdmission(1, 2, 0, nil)
	mustAdmit(t, a, "c1")
	go a.acquire(context.Background(), "c2", false, -1)
	waitQueued(t, a, 1) // queued*2 >= maxQueue: pressured

	out, err := a.acquire(context.Background(), "c3", true, -1)
	if out != admitStale || err != nil {
		t.Fatalf("pressured acquire with stale = %v, %v; want admitStale", out, err)
	}
	if n := a.m.ShedStale.Load(); n != 1 {
		t.Errorf("shed_stale_served_total = %d, want 1", n)
	}
	// The same request without a stale fallback queues (not pressured
	// past full), and with a full queue is rejected.
	go a.acquire(context.Background(), "c4", false, -1)
	waitQueued(t, a, 2)
	if out, err := a.acquire(context.Background(), "c5", true, -1); out != admitStale || err != nil {
		t.Fatalf("full-queue acquire with stale = %v, %v; want admitStale (stale outranks reject)", out, err)
	}
	if out, err := a.acquire(context.Background(), "c6", false, -1); out != admitShed || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full-queue acquire without stale = %v, %v; want rejection", out, err)
	}
	a.release()
	a.release()
	a.release()
}

// TestAdmissionFairShare: a client hogging the queue is shed once it
// exceeds its share of the slots while other clients still get in.
func TestAdmissionFairShare(t *testing.T) {
	a := newTestAdmission(1, 4, 0, nil)
	mustAdmit(t, a, "holder")
	// hog queues two flights, other one: active clients = 2, share = 2.
	go a.acquire(context.Background(), "hog", false, -1)
	waitQueued(t, a, 1)
	go a.acquire(context.Background(), "hog", false, -1)
	waitQueued(t, a, 2)
	go a.acquire(context.Background(), "other", false, -1)
	waitQueued(t, a, 3)

	out, err := a.acquire(context.Background(), "hog", false, -1)
	if out != admitShed || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("hog over share = %v, %v; want rejection", out, err)
	}
	if n := a.m.ShedFair.Load(); n != 1 {
		t.Errorf("shed_fair_share_total = %d, want 1", n)
	}
	// A second distinct client still fits (queue not full, share 1 used 0).
	go a.acquire(context.Background(), "third", false, -1)
	waitQueued(t, a, 4)
	for i := 0; i < 4; i++ {
		a.release()
	}
	a.release()
}

// TestAdmissionPeerShedBeforeClients: once the queue is 3/4 full, a
// cluster sibling's fill (which has its own origin fallback) is shed
// while a local client with the same timing still queues.
func TestAdmissionPeerShedBeforeClients(t *testing.T) {
	a := newTestAdmission(1, 4, 0, nil)
	mustAdmit(t, a, "holder")
	for i, c := range []string{"a", "b", "c"} {
		go a.acquire(context.Background(), c, false, -1)
		waitQueued(t, a, i+1)
	}
	out, err := a.acquire(context.Background(), "peer:http://sibling", false, -1)
	if out != admitShed || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("peer fill at 3/4 pressure = %v, %v; want rejection", out, err)
	}
	if n := a.m.ShedPeer.Load(); n != 1 {
		t.Errorf("shed_backpressure_total = %d, want 1", n)
	}
	// A local client in the same state is still admitted to the queue.
	got := make(chan admitOutcome, 1)
	go func() {
		out, _ := a.acquire(context.Background(), "local", false, -1)
		got <- out
	}()
	waitQueued(t, a, 4)
	for i := 0; i < 4; i++ {
		a.release()
	}
	if out := <-got; out != admitOK {
		t.Errorf("local client = %v, want admitOK", out)
	}
	for i := 0; i < 4; i++ {
		a.release()
	}
}

// TestAdmissionDeadlineAwareDrop: a request whose remaining budget
// cannot cover the expected wait plus service time is refused at the
// door instead of queued to die.
func TestAdmissionDeadlineAwareDrop(t *testing.T) {
	a := newTestAdmission(1, 10, 0, func() time.Duration { return 100 * time.Millisecond })
	mustAdmit(t, a, "c1")
	out, err := a.acquire(context.Background(), "c2", false, 10*time.Millisecond)
	if out != admitShed || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("doomed request = %v, %v; want rejection", out, err)
	}
	if n := a.m.ShedDeadline.Load(); n != 1 {
		t.Errorf("shed_deadline_total = %d, want 1", n)
	}
	// With a stale fallback the doomed request degrades instead.
	if out, err := a.acquire(context.Background(), "c3", true, 10*time.Millisecond); out != admitStale || err != nil {
		t.Fatalf("doomed request with stale = %v, %v; want admitStale", out, err)
	}
	// A generous budget queues normally.
	got := make(chan admitOutcome, 1)
	go func() {
		out, _ := a.acquire(context.Background(), "c4", false, 10*time.Second)
		got <- out
	}()
	waitQueued(t, a, 1)
	a.release()
	if out := <-got; out != admitOK {
		t.Errorf("well-budgeted request = %v, want admitOK", out)
	}
	a.release()
}

// TestAdmissionQueueDeadline: a waiter stuck past QueueDeadline is shed.
func TestAdmissionQueueDeadline(t *testing.T) {
	a := newTestAdmission(1, 4, 20*time.Millisecond, nil)
	mustAdmit(t, a, "c1")
	out, err := a.acquire(context.Background(), "c2", false, -1)
	if out != admitShed || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired waiter = %v, %v; want rejection", out, err)
	}
	if n := a.m.ShedDeadline.Load(); n != 1 {
		t.Errorf("shed_deadline_total = %d, want 1", n)
	}
	// With a stale fallback the expired waiter degrades instead.
	if out, err := a.acquire(context.Background(), "c3", true, -1); out != admitStale || err != nil {
		t.Fatalf("expired waiter with stale = %v, %v; want admitStale", out, err)
	}
	a.release()
}

// TestAdmissionCanceledWaiter: a waiter whose ctx dies while queued is
// an abandonment (ctx error), not a shed.
func TestAdmissionCanceledWaiter(t *testing.T) {
	a := newTestAdmission(1, 4, 0, nil)
	mustAdmit(t, a, "c1")
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		out, err := a.acquire(ctx, "c2", false, -1)
		if out != admitShed {
			err = errors.New("canceled waiter not reported as shed outcome")
		}
		got <- err
	}()
	waitQueued(t, a, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter error = %v, want context.Canceled", err)
	}
	if n := a.shedTotal(); n != 0 {
		t.Errorf("shed counters = %d after a cancellation, want 0", n)
	}
	a.release()
}

// TestAdmissionRoundRobinAcrossClients: freed slots rotate over the
// queued clients instead of draining one client's backlog first.
func TestAdmissionRoundRobinAcrossClients(t *testing.T) {
	a := newTestAdmission(1, 8, 0, nil)
	mustAdmit(t, a, "holder")
	order := make(chan string, 3)
	enqueue := func(name, client string, depth int) {
		go func() {
			if out, _ := a.acquire(context.Background(), client, false, -1); out == admitOK {
				order <- name
				a.release()
			}
		}()
		waitQueued(t, a, depth)
	}
	enqueue("A1", "clientA", 1)
	enqueue("A2", "clientA", 2)
	enqueue("B1", "clientB", 3)
	a.release()
	got := []string{<-order, <-order, <-order}
	want := []string{"A1", "B1", "A2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v (round-robin over clients)", got, want)
		}
	}
}
