package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
)

// TestClusterChaosOverHopTransport runs the fault meshes over the
// transport a node builds for itself, proxy.HopTransport: every node's
// peer dialer and the client loader's are a netsim.LinkFaults. One peer
// link is cut and another
// degraded (answers cut short, requests stalled), then node 2 is
// partitioned from its peers while the client loses its own link to it,
// and everything heals. Loads may degrade while the faults last; after
// the heal none fails, and no node quarantines a peer for what the
// network did.
func TestClusterChaosOverHopTransport(t *testing.T) {
	const nodes, classes = 3, 12
	meshes := make([]*netsim.LinkFaults, nodes)
	next := 0
	c, err := cluster.StartLocal(corpus(t, classes), nodes, verifyingProxyCfg, manualCfg(func(cfg *cluster.Config) {
		meshes[next] = netsim.NewLinkFaults(nil)
		cfg.Dial = meshes[next].Dial
		cfg.SuspectTimeout = time.Hour // nobody dies in this test
		cfg.PeerTimeout = 300 * time.Millisecond
		*cfg = cluster.WithLink(*cfg, 3, 50*time.Millisecond)
		cfg.AttestKey = []byte("hop-chaos-key")
		cfg.AttestQuorum = 2
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
	client := netsim.NewLinkFaults(nil)
	part := netsim.NewPartition(meshes, hosts)

	// Each phase loads every class in an arch of its own, so every phase
	// misses and the peer hop keeps being taken.
	phase := 0
	loadAll := func() (failed int) {
		phase++
		loader, err := proxy.HTTPLoaderMulti(c.URLs(), "client", fmt.Sprintf("arch-%d", phase), proxy.LoaderOptions{
			Policy: resilience.Policy{Timeout: 2 * time.Second, BreakerThreshold: -1}, Dial: client.Dial, ProbeInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, class := range classNames(classes) {
				if data, err := loader.Load(class); err != nil || len(data) == 0 {
					failed++
				}
			}
		}
		return failed
	}
	if n := loadAll(); n != 0 {
		t.Fatalf("%d loads failed on a healthy fleet", n)
	}

	meshes[0].Cut(hosts[1])
	meshes[1].SetLink(hosts[2], netsim.FaultSpec{Seed: 7, PartialRate: 0.3, HangRate: 0.1, HangFor: 50 * time.Millisecond})
	degraded := loadAll()
	part.Isolate(2)
	client.Cut(hosts[2])
	partitioned := loadAll()

	part.Heal()
	meshes[1].ClearLink(hosts[2])
	client.ClearLink(hosts[2])
	time.Sleep(100 * time.Millisecond) // outlive the breakers' cooldown and the loader's probe interval
	var peerErrors int64
	for _, n := range c.Nodes {
		peerErrors += n.PeerErrors()
	}
	for round := 0; round < 2; round++ {
		if n := loadAll(); n != 0 {
			t.Errorf("round %d after the heal: %d loads failed, want 0", round, n)
		}
	}
	for i, n := range c.Nodes {
		for j, u := range c.URLs() {
			if i != j && n.Quarantined(u) {
				t.Errorf("node %d quarantined node %d over a network fault", i, j)
			}
		}
	}
	if peerErrors == 0 {
		t.Error("the faults caused no peer errors; the meshes are not on the peer path")
	}
	t.Logf("%d loads failed with a link cut and one degraded, %d under the partition; %d peer errors absorbed", degraded, partitioned, peerErrors)
}
