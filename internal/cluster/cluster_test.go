package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/cluster"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
	"dvm/internal/verifier"
)

// appletClass builds the single-class applet called name.
func appletClass(name string, val int) ([]byte, error) {
	b := classgen.NewClass(name, "java/lang/Object")
	b.DefaultInit()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "val", "()I")
	m.IConst(int32(val)).IReturn()
	return b.BuildBytes()
}

// corpus builds n distinct single-class applets.
func corpus(t *testing.T, n int) proxy.MapOrigin {
	t.Helper()
	out := make(proxy.MapOrigin, n)
	for i, name := range classNames(n) {
		data, err := appletClass(name, i)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// anyApplet is an origin that serves an applet under any name, so a
// test can keep drawing names until the ring places them where it needs
// them (see classesOwnedBy).
type anyApplet struct{}

func (anyApplet) Fetch(_ context.Context, name string) ([]byte, error) {
	return appletClass(name, len(name))
}

// classesOwnedBy draws class names until want of them are owned by
// owner on ring. Ring placement hashes the members' ephemeral listener
// ports, so no fixed list of names has a guaranteed split; drawing until
// the ring yields enough is the only construction that never flakes.
// The names need an origin that can serve them all (anyApplet).
func classesOwnedBy(t *testing.T, ring *cluster.Ring, owner string, want int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < want; i++ {
		if i == 1<<16 {
			t.Fatalf("ring gives %s no keys", owner)
		}
		class := fmt.Sprintf("app/Applet%03d", i)
		if ring.Owner(cluster.KeyFor("dvm", class)) == owner {
			out = append(out, class)
		}
	}
	return out
}

// countingOrigin counts fetches across the whole cluster (all nodes
// share one instance).
type countingOrigin struct {
	inner   proxy.Origin
	fetches atomic.Int64
}

func (c *countingOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	c.fetches.Add(1)
	return c.inner.Fetch(ctx, name)
}

func classNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("app/Applet%03d", i)
	}
	return out
}

func verifyingProxyCfg(i int) proxy.Config {
	return proxy.Config{
		Pipeline:     rewrite.NewPipeline(verifier.Filter()),
		CacheEnabled: true,
	}
}

// TestClusterSingleOriginFetchPerKey is the headline acceptance
// property: a 4-node cluster serving the same class set from every node
// performs exactly one origin fetch per distinct (arch, class) key,
// where 4 round-robin replicas perform ~4x that.
func TestClusterSingleOriginFetchPerKey(t *testing.T) {
	// classes is coprime to nodes so the round-robin baseline can't luck
	// into per-class replica affinity.
	const nodes, classes = 4, 17
	org := &countingOrigin{inner: corpus(t, classes)}
	// Replication 1 and prefetch off: this test asserts the exact
	// peer-hop counts of the sharing property; replica pushes (R=2
	// default) and prefetch piggybacks warm requester caches and would
	// make the counts timing-dependent.
	c, err := cluster.StartLocal(org, nodes, verifyingProxyCfg, func(int) cluster.Config {
		return cluster.Config{Replication: 1, PrefetchK: -1}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	var want []byte
	for ni, n := range c.Nodes {
		for _, class := range classNames(classes) {
			res, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", ni), Arch: "dvm", Class: class})
			if err != nil {
				t.Fatalf("node %d class %s: %v", ni, class, err)
			}
			data := res.Data
			if len(data) == 0 {
				t.Fatalf("node %d class %s: empty response", ni, class)
			}
			if class == "app/Applet000" {
				if want == nil {
					want = data
				} else if !bytes.Equal(want, data) {
					t.Errorf("node %d serves different bytes for %s than the owner", ni, class)
				}
			}
		}
	}
	if got := org.fetches.Load(); got != classes {
		t.Errorf("cluster origin fetches = %d, want exactly %d (one per distinct key)", got, classes)
	}
	var total proxy.Stats
	for _, n := range c.Nodes {
		s := n.Proxy().Stats()
		total.OriginFetches += s.OriginFetches
		total.OwnerFetches += s.OwnerFetches
		total.PeerHits += s.PeerHits
		total.PeerFetches += s.PeerFetches
	}
	if total.OriginFetches != classes {
		t.Errorf("sum OriginFetches = %d, want %d", total.OriginFetches, classes)
	}
	if total.OwnerFetches != classes {
		t.Errorf("sum OwnerFetches = %d, want %d", total.OwnerFetches, classes)
	}
	if total.PeerHits != total.PeerFetches {
		t.Errorf("peer fetches failed: hits=%d fetches=%d", total.PeerHits, total.PeerFetches)
	}
	// Every node's misses for non-owned keys went over the peer protocol:
	// (nodes-1) requesters per key.
	if want := int64((nodes - 1) * classes); total.PeerHits != want {
		t.Errorf("sum PeerHits = %d, want %d", total.PeerHits, want)
	}

	// The round-robin baseline: same workload, N independent caches.
	org2 := &countingOrigin{inner: corpus(t, classes)}
	group, err := proxy.NewReplicaGroup(org2, nodes, func(int) proxy.Config {
		return verifyingProxyCfg(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < nodes; round++ {
		for _, class := range classNames(classes) {
			if _, err := group.Request(ctx, proxy.Lookup{Client: "client", Arch: "dvm", Class: class}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rr := org2.fetches.Load(); rr < int64(2*classes) {
		t.Errorf("round-robin fleet fetched only %d times; expected duplicate cold fetches well above %d", rr, classes)
	} else {
		t.Logf("origin fetches: cluster=%d round-robin=%d (%d distinct keys)", org.fetches.Load(), rr, classes)
	}
}

// TestClusterPeerDownDegradesToLocal kills one node's server mid-run:
// requests from the surviving nodes for keys that dead node owned must
// degrade to local origin fetches without a single request failure.
func TestClusterPeerDownDegradesToLocal(t *testing.T) {
	const nodes, classes = 4, 24
	org := &countingOrigin{inner: corpus(t, classes)}
	c, err := cluster.StartLocal(org, nodes, verifyingProxyCfg, func(int) cluster.Config {
		return cluster.Config{PeerTimeout: 2 * time.Second, BreakerThreshold: 2, BreakerCooldown: time.Minute}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	warm := func(skip int) {
		for ni, n := range c.Nodes {
			if ni == skip {
				continue
			}
			for _, class := range classNames(classes) {
				if _, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", ni), Arch: "dvm", Class: class}); err != nil {
					t.Fatalf("node %d class %s: %v", ni, class, err)
				}
			}
		}
	}
	warm(-1)
	fetchesBefore := org.fetches.Load()
	if fetchesBefore != classes {
		t.Fatalf("warm cluster fetched %d times, want %d", fetchesBefore, classes)
	}

	// Kill node 0 and invalidate the survivors' caches for its keys by
	// using a fresh arch (fresh cache keys reshard to the same owners).
	c.Stop(0)
	for ni, n := range c.Nodes {
		if ni == 0 {
			continue
		}
		for _, class := range classNames(classes) {
			if _, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", ni), Arch: "jdk", Class: class}); err != nil {
				t.Fatalf("after peer death: node %d class %s: %v", ni, class, err)
			}
		}
	}
	var peerErrors int64
	for ni, n := range c.Nodes {
		if ni == 0 {
			continue
		}
		peerErrors += n.PeerErrors()
	}
	if peerErrors == 0 {
		t.Error("no peer errors recorded although a peer was killed")
	}
	if org.fetches.Load() == fetchesBefore {
		t.Error("no local fallback fetches after peer death")
	}
	// The dead peer's link breaker must be visible in the survivors' view.
	open := false
	for ni, n := range c.Nodes {
		if ni == 0 {
			continue
		}
		for _, v := range n.PeerViews() {
			if v.Member == c.Nodes[0].Self() && v.Link != "closed" && v.Link != "-" {
				open = true
			}
		}
	}
	if !open {
		t.Error("no survivor marked the dead peer's link breaker non-closed")
	}
}

// TestClusterHotKeyReplication: a key a node keeps filling from its
// owner crosses HotThreshold and gets replicated into the node's own
// cache, after which the peer traffic for it stops.
func TestClusterHotKeyReplication(t *testing.T) {
	org := &countingOrigin{inner: anyApplet{}}
	// Replication 1: with the R=2 default a 2-node cluster replicates
	// every key to both nodes, which would warm node 0's cache before
	// the hot threshold could ever be crossed.
	c, err := cluster.StartLocal(org, 2, verifyingProxyCfg, func(int) cluster.Config {
		return cluster.Config{HotThreshold: 3, Replication: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A class owned by node 1, so node 0 must peer-fill it.
	remote := classesOwnedBy(t, c.Nodes[0].Ring(), c.Nodes[1].Self(), 1)[0]
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "client", Arch: "dvm", Class: remote}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Nodes[0].Proxy().Stats()
	if s.PeerFetches != 3 {
		t.Errorf("peer fetches = %d, want exactly HotThreshold=3 (then served from the local replica)", s.PeerFetches)
	}
	if c.Nodes[0].HotReplicas() == 0 {
		t.Error("hot key was never replicated locally")
	}
	if org.fetches.Load() != 1 {
		t.Errorf("origin fetched %d times for one key", org.fetches.Load())
	}
}

// TestClusterRejectionSurvivesPeerHop: a class the pipeline rejects is
// served as a VerifyError replacement by the owner, and the rejected
// flag crosses the peer protocol into the requester's audit trail.
func TestClusterRejectionSurvivesPeerHop(t *testing.T) {
	org := corpus(t, 4)
	org["app/Bad"] = []byte("\xde\xad\xbe\xefnot a classfile")
	var mu sync.Mutex
	var records []proxy.RequestRecord
	c, err := cluster.StartLocal(org, 2, func(int) proxy.Config {
		return proxy.Config{
			Pipeline:     rewrite.NewPipeline(verifier.Filter()),
			CacheEnabled: true,
			OnAudit: func(r proxy.RequestRecord) {
				mu.Lock()
				records = append(records, r)
				mu.Unlock()
			},
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Request from the node that does NOT own the key.
	requester := 0
	if c.Nodes[0].Ring().Owner(cluster.KeyFor("dvm", "app/Bad")) == c.Nodes[0].Self() {
		requester = 1
	}
	res, err := c.Nodes[requester].Request(context.Background(), proxy.Lookup{Client: "client", Arch: "dvm", Class: "app/Bad"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) == 0 {
		t.Fatal("no replacement class served")
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, r := range records {
		if r.Class == "app/Bad" && r.Peer != "" && r.Rejected {
			found = true
		}
	}
	if !found {
		t.Error("no audit record with both Peer set and Rejected=true; the flag was lost on the peer hop")
	}
}

// TestClusterNotFound: a class missing from the origin surfaces the
// canonical not-found through the peer path (mapped to 404 by the
// front end), not a peer-outage error.
func TestClusterNotFound(t *testing.T) {
	c, err := cluster.StartLocal(corpus(t, 4), 2, verifyingProxyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for ni, n := range c.Nodes {
		_, err := n.Request(context.Background(), proxy.Lookup{Client: "client", Arch: "dvm", Class: "app/Missing"})
		if !errors.Is(err, proxy.ErrNotFound) {
			t.Errorf("node %d: err = %v, want ErrNotFound", ni, err)
		}
	}
}

// TestClusterChaosPeerFaults drives concurrent cluster traffic while
// every peer link injects deterministic errors, hangs, and partial
// reads. No request may fail: a broken peer hop always degrades to a
// local origin fetch.
func TestClusterChaosPeerFaults(t *testing.T) {
	const nodes, classes, rounds = 3, 12, 6
	org := &countingOrigin{inner: corpus(t, classes)}
	links := make([]*netsim.LinkFaults, nodes)
	next := 0
	c, err := cluster.StartLocal(org, nodes, verifyingProxyCfg, func(int) cluster.Config {
		lf := netsim.NewLinkFaults(nil)
		links[next] = lf
		next++
		return cluster.Config{
			Transport:        lf,
			PeerTimeout:      300 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  100 * time.Millisecond,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every link from every node carries faults; each (src,dst) pair gets
	// its own deterministic sequence.
	for i, lf := range links {
		for j, u := range c.URLs() {
			if i == j {
				continue
			}
			parsed, err := url.Parse(u)
			if err != nil {
				t.Fatal(err)
			}
			lf.SetLink(parsed.Host, netsim.FaultSpec{
				Seed:        uint64(i*nodes + j),
				ErrorRate:   0.25,
				HangRate:    0.1,
				HangFor:     50 * time.Millisecond,
				PartialRate: 0.15,
			})
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nodes*rounds*classes)
	for ni := range c.Nodes {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(ni, r int) {
				defer wg.Done()
				// Distinct archs defeat caching round-to-round so the peer
				// path keeps being exercised under faults.
				arch := fmt.Sprintf("arch-%d", r)
				for _, class := range classNames(classes) {
					res, err := c.Nodes[ni].Request(context.Background(), proxy.Lookup{Client: fmt.Sprintf("c%d", ni), Arch: arch, Class: class})
					if err != nil {
						errCh <- fmt.Errorf("node %d round %d class %s: %w", ni, r, class, err)
						return
					}
					if len(res.Data) == 0 {
						errCh <- fmt.Errorf("node %d round %d class %s: empty", ni, r, class)
						return
					}
				}
			}(ni, r)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	var peerErrors int64
	for _, n := range c.Nodes {
		peerErrors += n.PeerErrors()
	}
	if peerErrors == 0 {
		t.Error("chaos run injected no peer failures; fault wiring is dead")
	}
	t.Logf("chaos: %d peer errors absorbed, %d origin fetches for %d distinct keys",
		peerErrors, org.fetches.Load(), rounds*classes)
}

// TestClusterHealthzRingView: the node's /healthz includes the ring
// membership with per-link breaker state.
func TestClusterHealthzRingView(t *testing.T) {
	c, err := cluster.StartLocal(corpus(t, 2), 3, verifyingProxyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := http.Get(c.URLs()[0] + "/healthz")
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
	if h.Service != "proxy" || h.Status != telemetry.StatusOK {
		t.Errorf("healthz service/status = %q/%q, want proxy/ok", h.Service, h.Status)
	}
	for _, counter := range []string{"peer_fetches_total", "owner_fetches_total"} {
		if _, ok := h.Counters[counter]; !ok {
			t.Errorf("healthz missing cluster counter %s:\n%s", counter, body)
		}
	}
	if len(h.Ring) != 3 {
		t.Fatalf("healthz lists %d ring members, want 3:\n%s", len(h.Ring), body)
	}
	if h.Epoch == 0 {
		t.Errorf("healthz missing membership epoch:\n%s", body)
	}
	selfs := 0
	for _, m := range h.Ring {
		if m.Self {
			selfs++
			if m.Link != "-" {
				t.Errorf("self member %s has link %q, want \"-\"", m.Member, m.Link)
			}
		} else if m.Link == "" {
			t.Errorf("member %s missing link state", m.Member)
		}
		if m.State != telemetry.MemberAlive {
			t.Errorf("member %s state = %q, want alive in a healthy fleet", m.Member, m.State)
		}
	}
	if selfs != 1 {
		t.Errorf("healthz marks %d members as self, want 1", selfs)
	}
	for _, gauge := range []string{"membership_epoch", "membership_alive", "ring_members"} {
		if _, ok := h.Gauges[gauge]; !ok {
			t.Errorf("healthz missing membership gauge %s:\n%s", gauge, body)
		}
	}
}

// TestClusterClientLoaderFailover: the multi-endpoint HTTP loader keeps
// loading classes when one endpoint dies.
func TestClusterClientLoaderFailover(t *testing.T) {
	c, err := cluster.StartLocal(corpus(t, 6), 3, verifyingProxyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loader, err := proxy.HTTPLoaderMulti(c.URLs(), "client", "dvm", proxy.LoaderOptions{
		Timeout: 2 * time.Second, BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range classNames(6) {
		if _, err := loader.Load(class); err != nil {
			t.Fatalf("load %s: %v", class, err)
		}
	}
	c.Stop(1)
	for round := 0; round < 3; round++ {
		for _, class := range classNames(6) {
			if _, err := loader.Load(class); err != nil {
				t.Fatalf("load %s after endpoint death: %v", class, err)
			}
		}
	}
	if _, err := loader.Load("app/Missing"); !errors.Is(err, proxy.ErrNotFound) {
		t.Errorf("missing class: err = %v, want ErrNotFound", err)
	}
}

// TestClusterTraceCrossHop is the tentpole acceptance scenario for the
// telemetry layer: a traced cold request from a non-owner must come back
// with one trace whose spans cover the whole journey — the requester's
// proxy.request and peer.fill, then (shifted onto the requester's
// timeline from the X-DVM-Trace-Spans response header) the owner's
// proxy.request and origin.fetch — in start order, with durations.
func TestClusterTraceCrossHop(t *testing.T) {
	const nodes, classes = 4, 8
	c, err := cluster.StartLocal(corpus(t, classes), nodes, verifyingProxyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n0 := c.Nodes[0]
	var class, owner string
	for _, cl := range classNames(classes) {
		if o := n0.Ring().Owner(cluster.KeyFor("dvm", cl)); o != n0.Self() {
			class, owner = cl, o
			break
		}
	}
	if class == "" {
		t.Fatal("ring assigned every class to node 0")
	}
	// Tracing is opt-in: the caller asks for a timeline by attaching one.
	tr := telemetry.NewTrace()
	res, err := n0.Request(telemetry.WithTrace(context.Background(), tr), proxy.Lookup{Client: "trace", Arch: "dvm", Class: class})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != tr {
		t.Fatal("result does not carry the caller's trace")
	}
	spans := res.Trace.Spans()
	if len(spans) < 3 {
		t.Fatalf("trace has %d spans, want >= 3 hops:\n%v", len(spans), spans)
	}
	find := func(stage, node string) int {
		for i, s := range spans {
			if s.Stage == stage && s.Node == node {
				return i
			}
		}
		t.Fatalf("trace missing span %s@%s:\n%v", stage, node, spans)
		return -1
	}
	iReq := find("proxy.request", n0.Self())
	iFill := find("peer.fill", n0.Self())
	iOwnerReq := find("proxy.request", owner)
	iOrigin := find("origin.fetch", owner)
	if !(iReq <= iFill && iFill <= iOwnerReq && iOwnerReq <= iOrigin) {
		t.Errorf("spans out of start order (req=%d fill=%d ownerReq=%d origin=%d):\n%v",
			iReq, iFill, iOwnerReq, iOrigin, spans)
	}
	for _, i := range []int{iReq, iFill, iOwnerReq, iOrigin} {
		if spans[i].Dur <= 0 {
			t.Errorf("span %s@%s has no duration", spans[i].Stage, spans[i].Node)
		}
	}
	// The owner's spans were shifted onto the requester's timeline: they
	// must not start before the peer.fill hop that produced them.
	if spans[iOwnerReq].Start < spans[iFill].Start {
		t.Errorf("owner span starts at %v, before the peer.fill hop at %v",
			spans[iOwnerReq].Start, spans[iFill].Start)
	}
	// Spans from two distinct nodes prove the trace crossed the wire.
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Node] = true
	}
	if len(seen) < 2 {
		t.Errorf("trace covers %d node(s), want >= 2: %v", len(seen), spans)
	}
}
