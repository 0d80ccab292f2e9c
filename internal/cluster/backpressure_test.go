package cluster_test

import (
	"context"
	"errors"
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
	}, cluster.WithLink(cluster.Config{
		Self:  "http://127.0.0.1:1",
		Peers: []string{overloaded.URL},
	}, 2, 0)) // trips fast if 429s were (wrongly) counted as failures
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

	if got := n.Metrics().PeerBackpressure.Load(); got != attempts {
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

	if got := c.Nodes[0].Metrics().PeerBackpressure.Load(); got != 1 {
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

// TestClusterOwnerShedsPeerFillBeforeLocalMisses is DESIGN.md §9's shed
// order on the wire: an owner with one service slot and room for four
// waiters, three of them its own clients' misses, sheds a fill from the
// other node at once with 429, and a further local miss still queues.
func TestClusterOwnerShedsPeerFillBeforeLocalMisses(t *testing.T) {
	org := newGatedOrigin(anyApplet{})
	c, err := cluster.StartLocal(org, 2, func(i int) proxy.Config {
		cfg := proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter())}
		if i == 1 {
			cfg.MaxQueue, cfg.MaxConcurrent, cfg.QueueDeadline = 4, 1, 5*time.Second
		}
		return cfg
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Six classes owned by node 1: one holds its slot, three wait, one
	// is node 0's fill and one is the last local miss.
	owned := classesOwnedBy(t, c.Nodes[0].Ring(), c.Nodes[1].Self(), 6)
	ctx := context.Background()
	results := make(chan error, 5)
	local := func(class string) {
		go func() {
			_, err := c.Nodes[1].Request(ctx, proxy.Lookup{Client: "local", Arch: "dvm", Class: class})
			results <- err
		}()
	}
	queued := func(n float64) func() bool {
		return func() bool { return c.Nodes[1].Proxy().Health().Gauges["queue_depth"] >= n }
	}
	org.gated.Store(true)
	local(owned[0])
	pollUntil(t, "owner's slot to be held", func() bool { return org.entered.Load() >= 1 })
	for _, class := range owned[1:4] {
		local(class)
	}
	pollUntil(t, "three local misses to wait", queued(3))
	// The requester's fallback fetch must not hang at the gate.
	org.gated.Store(false)

	start := time.Now()
	if _, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "client", Arch: "dvm", Class: owned[4]}); err != nil {
		t.Fatalf("request to the saturated owner's key failed instead of falling back: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("the fill waited %v at the owner; want it shed at once", took)
	}
	if got := c.Nodes[1].Proxy().Health().Counters["shed_backpressure_total"]; got != 1 {
		t.Errorf("owner shed_backpressure_total = %d, want 1", got)
	}
	if got := c.Nodes[0].Metrics().PeerBackpressure.Load(); got != 1 {
		t.Errorf("requester peer_backpressure_total = %d, want 1", got)
	}
	local(owned[5])
	pollUntil(t, "a fourth local miss to wait", queued(4))

	close(org.release)
	for i := 0; i < 5; i++ {
		if err := <-results; err != nil {
			t.Errorf("local miss failed: %v", err)
		}
	}
}

// TestAbandonedFillIsNoLinkFailure: a fill whose flight was abandoned —
// every waiter left, so the flight's context was canceled — proves
// nothing about the owner. Well past the breaker threshold of abandoned
// fills to a slow but healthy owner, its link stays closed, the owner
// stays alive in the membership view, and no peer error is counted.
func TestAbandonedFillIsNoLinkFailure(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer slow.Close()
	defer close(release)

	n, err := cluster.NewNode(anyApplet{}, proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter())}, cluster.WithLink(cluster.Config{
		Self:           "http://127.0.0.1:1",
		Peers:          []string{slow.URL},
		GossipInterval: -1,
	}, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const fills = 6
	var answered int64 // by the local origin, once an open link skips the owner
	for i, class := range classesOwnedBy(t, n.Ring(), slow.URL, fills) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if _, err := n.Request(ctx, proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err == nil {
			answered++
		}
		cancel()
		pollUntil(t, "the flight to end", func() bool { return n.Proxy().Stats().FlightsAbandoned+answered == int64(i+1) })
	}

	if got := n.PeerErrors(); got != 0 {
		t.Errorf("peer_errors_total = %d, want 0 (an abandoned fill is no peer failure)", got)
	}
	if got := n.Metrics().Suspects.Load(); got != 0 {
		t.Errorf("member_suspects_total = %d, want 0", got)
	}
	for _, v := range n.PeerViews() {
		if v.Member == slow.URL && (v.Link != "closed" || v.State != "alive") {
			t.Errorf("owner after %d abandoned fills: link %s, state %s; want closed, alive", fills, v.Link, v.State)
		}
	}
}

// switchLink is a peer dialer a test flips between a dead link, a link
// that answers nothing until the caller gives up, and the real one.
type switchLink struct {
	mode    atomic.Int32 // linkDown, linkSlow or linkUp
	reached atomic.Int64 // requests passed to the real link
}

const (
	linkDown int32 = iota
	linkSlow
	linkUp
)

func (s *switchLink) dialer() *hookDial {
	return &hookDial{
		refuse: func() error {
			if s.mode.Load() == linkDown {
				return errors.New("switchLink: connection refused")
			}
			return nil
		},
		write: func(c *hookConn, p []byte) (int, error) {
			switch s.mode.Load() {
			case linkDown:
				c.Close()
				return 0, errors.New("switchLink: connection reset")
			case linkSlow:
				return 0, c.wait(nil)
			}
			s.reached.Add(1)
			return c.Conn.Write(p)
		},
	}
}

// TestAbandonedProbeKeepsTheLinkProbing: a fill abandoned while it was
// the half-open probe hands the probe back. The link opened by a dead
// owner must not stay refusing once the owner is back: the next fill
// after the abandoned probe reaches the owner and closes the link.
func TestAbandonedProbeKeepsTheLinkProbing(t *testing.T) {
	link := &switchLink{}
	c, err := cluster.StartLocal(anyApplet{}, 2, func(int) proxy.Config {
		return proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter())}
	}, func(i int) cluster.Config {
		cfg := cluster.WithLink(cluster.Config{GossipInterval: -1}, 1, 20*time.Millisecond)
		if i == 0 {
			cfg.Dial = link.dialer().Dial
		}
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, owner := c.Nodes[0], c.Nodes[1].Self()
	linkState := func() string {
		for _, v := range n.PeerViews() {
			if v.Member == owner {
				return v.Link
			}
		}
		return ""
	}
	classes := classesOwnedBy(t, n.Ring(), owner, 3)
	ctx := context.Background()

	// The owner is down: one failed fill opens its link.
	if _, err := n.Request(ctx, proxy.Lookup{Client: "c", Arch: "dvm", Class: classes[0]}); err != nil {
		t.Fatalf("fill with the owner down did not fall back locally: %v", err)
	}
	if got := linkState(); got != "open" {
		t.Fatalf("link after a failed fill = %q, want open", got)
	}
	pollUntil(t, "the cooldown to pass", func() bool { return linkState() == "half-open" })

	// The half-open probe goes to a silent owner and its caller gives up.
	link.mode.Store(linkSlow)
	abandoned := n.Proxy().Stats().FlightsAbandoned
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	_, _ = n.Request(short, proxy.Lookup{Client: "c", Arch: "dvm", Class: classes[1]})
	cancel()
	pollUntil(t, "the probe's flight to end", func() bool { return n.Proxy().Stats().FlightsAbandoned > abandoned })

	// The owner is back: the next fill probes it and closes the link.
	link.mode.Store(linkUp)
	if _, err := n.Request(ctx, proxy.Lookup{Client: "c", Arch: "dvm", Class: classes[2]}); err != nil {
		t.Fatal(err)
	}
	if link.reached.Load() == 0 {
		t.Error("the fill after an abandoned probe never reached the owner")
	}
	if got := linkState(); got != "closed" {
		t.Errorf("link after the owner came back = %q, want closed", got)
	}
}
