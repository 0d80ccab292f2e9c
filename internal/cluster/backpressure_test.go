package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

// gatedOrigin holds fetches at a gate until release is closed (or the
// fetch context dies) so a test can pin a node's admission slots.
type gatedOrigin struct {
	inner   proxy.Origin
	gated   atomic.Bool
	entered atomic.Int64
	release chan struct{}
}

func newGatedOrigin(inner proxy.Origin) *gatedOrigin {
	return &gatedOrigin{inner: inner, release: make(chan struct{})}
}

func (g *gatedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	g.entered.Add(1)
	if g.gated.Load() {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.Fetch(ctx, name)
}

func pollUntil(t *testing.T, what string, cond func() bool) {
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

// TestClusterPeerBackpressureFallsBackLocally: an owner answering fills
// with 429 is applying deliberate backpressure, not failing. The
// requester must degrade to its local origin, count the event apart
// from peer errors, and leave the link breaker untouched.
func TestClusterPeerBackpressureFallsBackLocally(t *testing.T) {
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	defer overloaded.Close()

	n, err := cluster.NewNode(anyApplet{}, proxy.Config{
		Pipeline: rewrite.NewPipeline(verifier.Filter()),
		// Cache off so repeat requests exercise the peer path again.
	}, cluster.Config{
		Self:             "http://127.0.0.1:1",
		Peers:            []string{overloaded.URL},
		BreakerThreshold: 2, // trips fast if 429s were (wrongly) counted as failures
	})
	if err != nil {
		t.Fatal(err)
	}

	// A class the shedding server owns, so every miss peer-fills it.
	remote := classesOwnedBy(t, n.Ring(), overloaded.URL, 1)[0]

	ctx := context.Background()
	const attempts = 4
	for i := 0; i < attempts; i++ {
		res, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("c%d", i), Arch: "dvm", Class: remote})
		if err != nil {
			t.Fatalf("attempt %d: shed peer fill did not fall back to local origin: %v", i, err)
		}
		if len(res.Data) == 0 {
			t.Fatalf("attempt %d: empty response from local fallback", i)
		}
	}

	if got := n.PeerBackpressure(); got != attempts {
		t.Errorf("PeerBackpressure = %d, want %d", got, attempts)
	}
	if got := n.PeerErrors(); got != 0 {
		t.Errorf("PeerErrors = %d, want 0 (backpressure is not an outage)", got)
	}
	// Well past BreakerThreshold 429s and the link is still healthy.
	for _, v := range n.PeerViews() {
		if v.Member == overloaded.URL && v.Link != "closed" {
			t.Errorf("link breaker to shedding owner = %q, want closed", v.Link)
		}
	}
	if h := n.Health(); h.Counters["peer_backpressure_total"] != attempts {
		t.Errorf("healthz peer_backpressure_total = %d, want %d", h.Counters["peer_backpressure_total"], attempts)
	}
}

// TestClusterOwnerShedsPeerFill is the same contract end to end over
// the real wire: a saturated owner's admission control sheds the peer
// fill with 429 + Retry-After, and the requester serves the class from
// its own origin without recording a peer failure.
func TestClusterOwnerShedsPeerFill(t *testing.T) {
	org := newGatedOrigin(anyApplet{})
	c, err := cluster.StartLocal(org, 2, func(i int) proxy.Config {
		cfg := proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter())}
		if i == 1 {
			// The owner-to-be runs a tiny admission envelope we can fill.
			cfg.MaxQueue = 1
			cfg.MaxConcurrent = 1
			cfg.QueueDeadline = 5 * time.Second
			cfg.ShedPolicy = proxy.ShedFIFO
		}
		return cfg
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Three distinct classes owned by node 1: one to hold its only
	// service slot, one to fill its queue, one for node 0 to request.
	owned := classesOwnedBy(t, c.Nodes[0].Ring(), c.Nodes[1].Self(), 3)

	ctx := context.Background()
	org.gated.Store(true)
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(class string) {
			_, err := c.Nodes[1].Request(ctx, proxy.Lookup{Client: "saturator", Arch: "dvm", Class: class})
			results <- err
		}(owned[i])
	}
	pollUntil(t, "owner's slot to be held", func() bool { return org.entered.Load() >= 1 })
	pollUntil(t, "owner's queue to fill", func() bool {
		return c.Nodes[1].Proxy().Health().Gauges["queue_depth"] >= 1
	})
	// The fallback fetch on node 0 must not hang at the gate.
	org.gated.Store(false)

	res, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "client", Arch: "dvm", Class: owned[2]})
	if err != nil {
		t.Fatalf("request to saturated owner's key failed instead of falling back: %v", err)
	}
	if len(res.Data) == 0 {
		t.Fatal("empty response via local fallback")
	}

	if got := c.Nodes[0].PeerBackpressure(); got != 1 {
		t.Errorf("requester PeerBackpressure = %d, want 1", got)
	}
	if got := c.Nodes[0].PeerErrors(); got != 0 {
		t.Errorf("requester PeerErrors = %d, want 0", got)
	}
	for _, v := range c.Nodes[0].PeerViews() {
		if v.Member == c.Nodes[1].Self() && v.Link != "closed" {
			t.Errorf("requester's link to shedding owner = %q, want closed", v.Link)
		}
	}
	if shed := c.Nodes[1].Proxy().Stats().Shed; shed < 1 {
		t.Errorf("owner Stats.Shed = %d, want >= 1 (the peer fill)", shed)
	}

	close(org.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("saturating request failed: %v", err)
		}
	}
}
