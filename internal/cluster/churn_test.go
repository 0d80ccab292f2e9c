package cluster_test

// Integration tests for live membership: gossip failure detection,
// network partitions, graceful drain, and the churn property test that
// joins, crashes, and rejoins nodes under continuous load. All of them
// run the cluster in manual gossip mode (GossipInterval < 0): the test
// drives rounds with GossipNow, so convergence is deterministic and the
// suite stays fast and race-clean.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// manualCfg is the deterministic membership config shared by these
// tests: no background gossip, fast suspicion expiry.
func manualCfg(over func(*cluster.Config)) func(int) cluster.Config {
	return func(int) cluster.Config {
		c := cluster.Config{
			GossipInterval: -1,
			SuspectTimeout: 50 * time.Millisecond,
			PeerTimeout:    time.Second,
		}
		if over != nil {
			over(&c)
		}
		return c
	}
}

func gossipAll(t *testing.T, nodes []*cluster.Node, skip map[int]bool) {
	t.Helper()
	for i, n := range nodes {
		if skip[i] {
			continue
		}
		n.GossipNow(context.Background())
	}
}

func memberState(t *testing.T, n *cluster.Node, addr string) string {
	t.Helper()
	for _, m := range n.PeerViews() {
		if m.Member == addr {
			return m.State
		}
	}
	return "unknown"
}

// TestClusterGossipFailureDetection: a crashed node is suspected after
// consecutive failed exchanges (keeping its ring share while suspect),
// declared dead once the suspicion expires, and dropped from the ring —
// with the survivors agreeing on the epoch.
func TestClusterGossipFailureDetection(t *testing.T) {
	c, err := cluster.StartLocal(corpus(t, 4), 3, verifyingProxyCfg, manualCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := c.Nodes[2].Self()
	survivors := c.Nodes[:2]

	gossipAll(t, c.Nodes, nil) // converge the seeded views
	c.Stop(2)                  // crash: no goodbye

	// Two consecutive failed exchanges raise the suspicion.
	for round := 0; round < 2; round++ {
		gossipAll(t, survivors, nil)
	}
	for i, n := range survivors {
		if got := memberState(t, n, dead); got != "suspect" {
			t.Errorf("node %d sees crashed peer as %q, want suspect", i, got)
		}
		// Suspicion alone must not remap: a flap would thrash the ring.
		if got := n.Ring().Size(); got != 3 {
			t.Errorf("node %d ring size = %d while peer only suspect, want 3", i, got)
		}
	}

	// Past SuspectTimeout the sweep declares it dead and the ring drops it.
	time.Sleep(60 * time.Millisecond)
	gossipAll(t, survivors, nil)
	for i, n := range survivors {
		if got := memberState(t, n, dead); got != "dead" {
			t.Errorf("node %d sees crashed peer as %q, want dead", i, got)
		}
		if got := n.Ring().Size(); got != 2 {
			t.Errorf("node %d ring size = %d after death, want 2", i, got)
		}
	}
	gossipAll(t, survivors, nil)
	if a, b := survivors[0].Epoch(), survivors[1].Epoch(); a != b {
		t.Errorf("survivor epochs disagree: %d vs %d", a, b)
	}
}

// TestClusterBreakerTripSuspicion: the data path feeds the failure
// detector — peer-fill failures trip the link breaker, and the trip
// raises a membership suspicion without waiting for a gossip round.
func TestClusterBreakerTripSuspicion(t *testing.T) {
	const classes = 12
	c, err := cluster.StartLocal(corpus(t, classes), 2, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		cfg.Replication = 1
		*cfg = cluster.WithLink(*cfg, 2, time.Minute)
		cfg.PeerTimeout = 300 * time.Millisecond
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := c.Nodes[1].Self()
	c.Stop(1)

	// Drive enough fills toward the dead owner to trip its breaker. The
	// requests themselves must all succeed via the local fallback.
	ctx := context.Background()
	for _, class := range classNames(classes) {
		if _, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err != nil {
			t.Fatalf("request during peer outage failed: %s: %v", class, err)
		}
	}
	if got := memberState(t, c.Nodes[0], dead); got != "suspect" {
		t.Errorf("breaker trip did not raise suspicion: peer state = %q, want suspect", got)
	}
}

// TestClusterTrippedLinkHealth: the link's state and the membership
// state are one record, so one Health() call shows a tripped link as
// "open" together with the suspicion its opening raised.
func TestClusterTrippedLinkHealth(t *testing.T) {
	const classes = 12
	c, err := cluster.StartLocal(corpus(t, classes), 2, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		cfg.Replication = 1
		*cfg = cluster.WithLink(*cfg, 1, time.Minute)
		cfg.SuspectTimeout = time.Hour
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dead := c.Nodes[1].Self()
	c.Stop(1)
	for _, class := range classNames(classes) {
		if _, err := c.Nodes[0].Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err != nil {
			t.Fatalf("request during peer outage failed: %s: %v", class, err)
		}
	}
	h := c.Nodes[0].Health()
	var seen bool
	for _, m := range h.Ring {
		if m.Member == dead {
			seen = true
			if m.Link != "open" || m.State != telemetry.MemberSuspect {
				t.Errorf("dead peer in /healthz: link %q, state %q; want open, suspect", m.Link, m.State)
			}
		}
	}
	if !seen || h.Status != telemetry.StatusDegraded {
		t.Errorf("/healthz status %q, dead peer listed %v; want degraded, listed", h.Status, seen)
	}
}

// TestClusterPartitionSuspicionAndRefutation drives netsim.Partition
// through both failure-detector edge cases: a healed symmetric
// partition clears the suspicion through direct evidence (the next
// successful exchange), and an asymmetric inbound-only partition is
// refuted by the victim's own outbound gossip — the case a naive
// ping-based detector gets wrong.
func TestClusterPartitionSuspicionAndRefutation(t *testing.T) {
	const nodes = 3
	meshes := make([]*netsim.LinkFaults, nodes)
	next := 0
	c, err := cluster.StartLocal(corpus(t, 4), nodes, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		meshes[next] = netsim.NewLinkFaults(nil)
		cfg.Dial = meshes[next].Dial
		cfg.SuspectTimeout = time.Hour // nobody dies in this test
		cfg.PeerTimeout = 300 * time.Millisecond
		next++
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hosts := make([]string, nodes)
	for i, u := range c.URLs() {
		hosts[i] = strings.TrimPrefix(u, "http://")
	}
	part := netsim.NewPartition(meshes, hosts)
	victim := c.Nodes[2].Self()
	gossipAll(t, c.Nodes, nil)

	// Symmetric partition: both sides suspect across the cut...
	part.Isolate(2)
	for round := 0; round < 2; round++ {
		gossipAll(t, c.Nodes[:2], nil)
	}
	if got := memberState(t, c.Nodes[0], victim); got != "suspect" {
		t.Fatalf("isolated peer state = %q, want suspect", got)
	}
	// ...and healing clears it on the next exchange.
	part.Heal()
	gossipAll(t, c.Nodes[:2], nil)
	if got := memberState(t, c.Nodes[0], victim); got != "alive" {
		t.Errorf("after heal peer state = %q, want alive", got)
	}

	// Asymmetric partition: nobody reaches node 2, but node 2 still
	// reaches out. Its own gossip hears the suspicion and refutes it at
	// a higher incarnation.
	part.IsolateInbound(2)
	for round := 0; round < 2; round++ {
		gossipAll(t, c.Nodes[:2], nil)
	}
	if got := memberState(t, c.Nodes[0], victim); got != "suspect" {
		t.Fatalf("inbound-isolated peer state = %q, want suspect", got)
	}
	// Round 1: node 2 learns of the suspicion from the exchange response
	// and refutes. Round 2: the refutation reaches the accusers.
	c.Nodes[2].GossipNow(context.Background())
	c.Nodes[2].GossipNow(context.Background())
	if got := memberState(t, c.Nodes[0], victim); got != "alive" {
		t.Errorf("outbound refutation did not land: peer state = %q, want alive", got)
	}
	part.Heal()
}

// TestClusterDrainHandsOffCache: a graceful leave announces draining to
// the fleet, pushes the leaver's cache to each key's new owner, and the
// survivors then serve the leaver's old keys without a single new
// origin fetch.
func TestClusterDrainHandsOffCache(t *testing.T) {
	const classes = 18
	org := &countingOrigin{inner: corpus(t, classes)}
	c, err := cluster.StartLocal(org, 3, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		cfg.Replication = 1 // handoff must be the only warm path
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	gossipAll(t, c.Nodes, nil)

	// Warm through the leaver: every class lands in its owner's cache
	// (and the leaver's own).
	leaver := 1
	for _, class := range classNames(classes) {
		if _, err := c.Nodes[leaver].Request(ctx, proxy.Lookup{Client: "warm", Arch: "dvm", Class: class}); err != nil {
			t.Fatal(err)
		}
	}
	if got := org.fetches.Load(); got != classes {
		t.Fatalf("warmup fetched %d times, want %d", got, classes)
	}

	if err := c.Drain(ctx, leaver); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if c.Nodes[leaver].Metrics().HandoffKeys.Load() == 0 {
		t.Error("drain pushed no cache entries")
	}
	for _, i := range []int{0, 2} {
		if got := memberState(t, c.Nodes[i], c.Nodes[leaver].Self()); got != "draining" {
			t.Errorf("node %d sees leaver as %q, want draining", i, got)
		}
		if got := c.Nodes[i].Ring().Size(); got != 2 {
			t.Errorf("node %d ring size = %d after drain, want 2", i, got)
		}
	}

	// Every key — including those the leaver owned — now serves from the
	// survivors' caches: zero failures, zero new origin fetches.
	for _, i := range []int{0, 2} {
		for _, class := range classNames(classes) {
			if _, err := c.Nodes[i].Request(ctx, proxy.Lookup{Client: "after", Arch: "dvm", Class: class}); err != nil {
				t.Errorf("node %d class %s after drain: %v", i, class, err)
			}
		}
	}
	if got := org.fetches.Load(); got != classes {
		t.Errorf("origin fetches after drain = %d, want still %d (handoff kept every key warm)", got, classes)
	}
}

// TestClusterDrainingRejectsPeerFills: a draining node sheds peer fills
// with 429 + X-DVM-Draining, and a requester that sees the flag records
// the drain and degrades without error or breaker damage.
func TestClusterDrainingRejectsPeerFills(t *testing.T) {
	const classes = 8
	c, err := cluster.StartLocal(corpus(t, classes), 2, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		cfg.Replication = 1
		*cfg = cluster.WithLink(*cfg, 1, time.Minute) // a single counted failure would trip it
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	gossipAll(t, c.Nodes, nil)

	// Drain node 1 but leave its server running: requests racing the
	// departure must see the draining flag, not a timeout.
	if err := c.Nodes[1].Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fill := cluster.BatchRequest{
		Reason: proxy.ReasonFill, Member: c.URLs()[0], Arch: "jdk", Classes: []string{"app/Applet000"},
	}
	body, _ := fill.MarshalBinary()
	resp, err := http.Post(c.URLs()[1]+cluster.BatchPath, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("peer fill on draining node: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-DVM-Draining") != "1" {
		t.Error("draining rejection missing X-DVM-Draining header")
	}

	// The broadcast already told node 0; every key still resolves there,
	// and the shed fill must not have tripped the link breaker.
	if got := memberState(t, c.Nodes[0], c.Nodes[1].Self()); got != "draining" {
		t.Errorf("node 0 sees leaver as %q, want draining", got)
	}
	for _, class := range classNames(classes) {
		if _, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "c", Arch: "jdk", Class: class}); err != nil {
			t.Errorf("request during drain failed: %s: %v", class, err)
		}
	}
	for _, v := range c.Nodes[0].PeerViews() {
		if v.Member == c.Nodes[1].Self() && v.Link == "open" {
			t.Error("draining shed tripped the requester's link breaker")
		}
	}
}

// TestClusterLiveChurnProperty is the membership acceptance property:
// under continuous load, a join, a crash, and a rejoin must (1) never
// surface a client-visible failure, (2) remap at most ~1.5/n of the
// keyspace per join, and (3) pay at most one origin fetch + pipeline
// run per distinct key per membership epoch. Runs in manual gossip
// mode and is part of the -race CI job.
func TestClusterLiveChurnProperty(t *testing.T) {
	const classes = 24
	const probes = 2000 // ring-remap measurement keys (decoupled from workload noise)
	org := &perKeyOrigin{inner: corpus(t, classes), fetches: make(map[string]int)}
	c, err := cluster.StartLocal(org, 4, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		cfg.Replication = 2
		*cfg = cluster.WithLink(*cfg, 3, time.Minute)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	gossipAll(t, c.Nodes, nil)

	// Warm: one fetch per key, then the churn begins.
	for _, class := range classNames(classes) {
		if _, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "warm", Arch: "dvm", Class: class}); err != nil {
			t.Fatal(err)
		}
	}

	// Continuous load against the founding fleet (joiners are reached
	// via the peer protocol, as production clients would).
	fleet := append([]*cluster.Node(nil), c.Nodes...)
	var down [4]atomic.Bool
	var failures atomic.Int64
	var reqs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ni := (w + i) % len(fleet)
				for down[ni].Load() {
					ni = (ni + 1) % len(fleet)
				}
				class := fmt.Sprintf("app/Applet%03d", (w*7+i)%classes)
				if _, err := fleet[ni].Request(ctx, proxy.Lookup{Client: fmt.Sprintf("w%d", w), Arch: "dvm", Class: class}); err != nil {
					failures.Add(1)
				}
				reqs.Add(1)
				// Paced, not busy-spinning: an unthrottled loop starves the
				// gossip exchanges of CPU and the convergence the test is
				// measuring slows by orders of magnitude.
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}

	remapFrac := func(before []string) float64 {
		changed := 0
		ring := c.Nodes[0].Ring()
		for k := 0; k < probes; k++ {
			if ring.Owner(fmt.Sprintf("probe-%04d", k)) != before[k] {
				changed++
			}
		}
		return float64(changed) / probes
	}
	snapshot := func() []string {
		out := make([]string, probes)
		ring := c.Nodes[0].Ring()
		for k := 0; k < probes; k++ {
			out[k] = ring.Owner(fmt.Sprintf("probe-%04d", k))
		}
		return out
	}
	converge := func(skip map[int]bool) {
		for round := 0; round < 2; round++ {
			gossipAll(t, c.Nodes, skip)
		}
	}

	time.Sleep(50 * time.Millisecond) // steady phase

	// Event 1: join. The newcomer announces itself, the fleet converges,
	// and it pulls the keys it now owns.
	before := snapshot()
	j1, err := c.AddNode(nil)
	if err != nil {
		t.Fatal(err)
	}
	converge(nil)
	if frac := remapFrac(before); frac > 1.5/5 {
		t.Errorf("join remapped %.1f%% of the keyspace, want <= %.1f%%", frac*100, 100*1.5/5)
	}
	if n := c.Nodes[j1].PullHandoff(ctx); n == 0 {
		// Only an error if the join actually took workload keys.
		owns := false
		ring := c.Nodes[j1].Ring()
		for _, class := range classNames(classes) {
			if ring.Owner(cluster.KeyFor("dvm", class)) == c.Nodes[j1].Self() {
				owns = true
			}
		}
		if owns {
			t.Error("joining node owns workload keys but pulled no handoff entries")
		}
	}
	time.Sleep(50 * time.Millisecond)

	// Event 2: crash one founding node.
	victim := 1
	down[victim].Store(true)
	c.Stop(victim)
	skip := map[int]bool{victim: true}
	converge(skip)
	time.Sleep(60 * time.Millisecond) // suspicion expires under load
	converge(skip)
	if got := memberState(t, c.Nodes[0], fleet[victim].Self()); got != "dead" {
		t.Errorf("crashed node state = %q, want dead", got)
	}
	time.Sleep(50 * time.Millisecond)

	// Event 3: rejoin a fresh node.
	before = snapshot()
	j2, err := c.AddNode(nil)
	if err != nil {
		t.Fatal(err)
	}
	converge(skip)
	if frac := remapFrac(before); frac > 1.5/5 {
		t.Errorf("rejoin remapped %.1f%% of the keyspace, want <= %.1f%%", frac*100, 100*1.5/5)
	}
	c.Nodes[j2].PullHandoff(ctx)
	time.Sleep(50 * time.Millisecond)

	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Errorf("%d client-visible failures across churn (of %d requests), want 0", f, reqs.Load())
	}
	if reqs.Load() < 100 {
		t.Errorf("load generator made only %d requests; the churn ran unloaded", reqs.Load())
	}
	// Four membership epochs (boot, join, death, rejoin): a key may pay
	// one origin fetch in each, never more — duplicates within an epoch
	// would mean single-flight or ownership broke.
	org.mu.Lock()
	for key, n := range org.fetches {
		if n > 4 {
			t.Errorf("key %s paid %d origin fetches across 4 epochs, want <= 4", key, n)
		}
	}
	org.mu.Unlock()
	// And the live fleet agrees on the final membership.
	converge(skip)
	want := c.Nodes[0].Epoch()
	for i, n := range c.Nodes {
		if i == victim {
			continue
		}
		if got := n.Epoch(); got != want {
			t.Errorf("node %d epoch = %d, fleet disagrees (node 0 has %d)", i, got, want)
		}
	}
}

// perKeyOrigin counts origin fetches per class name.
type perKeyOrigin struct {
	inner   proxy.Origin
	mu      sync.Mutex
	fetches map[string]int
}

func (o *perKeyOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	o.mu.Lock()
	o.fetches[name]++
	o.mu.Unlock()
	return o.inner.Fetch(ctx, name)
}

// TestClusterLoaderEndpointRecovery: the multi-endpoint client loader
// ejects an endpoint the network has killed and re-probes it after
// ProbeInterval, restoring the full rotation once the endpoint heals.
func TestClusterLoaderEndpointRecovery(t *testing.T) {
	const classes = 6
	c, err := cluster.StartLocal(corpus(t, classes), 2, verifyingProxyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lf := netsim.NewLinkFaults(nil)
	loader, err := proxy.HTTPLoaderMulti(c.URLs(), "client", "dvm", proxy.LoaderOptions{
		Timeout:          2 * time.Second,
		BreakerThreshold: -1,
		Dial:             lf.Dial,
		ProbeInterval:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadAll := func(stage string) {
		t.Helper()
		for _, class := range classNames(classes) {
			if _, err := loader.Load(class); err != nil {
				t.Fatalf("%s: load %s: %v", stage, class, err)
			}
		}
	}
	loadAll("healthy")

	// Kill endpoint 0 at the network layer: loads keep succeeding via
	// endpoint 1, and the dead endpoint is ejected from the rotation.
	host0 := strings.TrimPrefix(c.URLs()[0], "http://")
	lf.Cut(host0)
	for round := 0; round < 3; round++ {
		loadAll("endpoint down")
	}
	if down := loader.Down(); !down[0] || down[1] {
		t.Fatalf("after cut Down() = %v, want [true false]", down)
	}

	// Heal endpoint 0, outlive the probe interval, and kill endpoint 1:
	// every load now has to succeed through the recovered endpoint —
	// proof the re-probe actually put it back in rotation.
	lf.ClearLink(host0)
	time.Sleep(60 * time.Millisecond)
	host1 := strings.TrimPrefix(c.URLs()[1], "http://")
	lf.Cut(host1)
	for round := 0; round < 3; round++ {
		loadAll("recovered")
	}
	if down := loader.Down(); down[0] || !down[1] {
		t.Errorf("after heal+cut Down() = %v, want [false true]", down)
	}
}
