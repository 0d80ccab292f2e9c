package cluster_test

// What a non-owner keeps of a peer fill: nothing, once written. The
// owner's answer frame is read into a recycled buffer that the fill's
// artifact aliases, and it goes back to the pool when the last waiter that
// received it has written its response. The seal is a copy, so an audit
// record never points into a recycled frame. And no peer asks another for
// gzip: frames are binary.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/attest"
	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/slab"
)

// gatedTransport holds every batch request, while a gate is set, until
// that gate is closed or the exchange is cut off: a slow owner, as the
// non-owner sees it.
type gatedTransport struct {
	gate atomic.Pointer[chan struct{}]
}

func (g *gatedTransport) dialer() *hookDial {
	return &hookDial{write: func(c *hookConn, p []byte) (int, error) {
		if gate := g.gate.Load(); gate != nil && isRequest(p, http.MethodPost, cluster.BatchPath) {
			if err := c.wait(*gate); err != nil {
				return 0, err
			}
		}
		return c.Conn.Write(p)
	}}
}

// waitFlightWaiters waits until want requests wait on n's flights.
func waitFlightWaiters(t *testing.T, n *cluster.Node, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := n.Proxy().Health().Gauges["flight_waiters"]; int(got) == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("flight_waiters = %v, want %d", got, want)
		}
	}
}

// TestPoisonedCoalescedPeerFill: on the cold_attest_3n fleet shape with
// slab.PoisonOnReset on, HTTP clients coalesce onto one fill at the node
// that neither owns nor replicates a key, while the owner is held slow.
// First only HTTP clients: each writes the owner's bytes and releases, and
// the last release recycles the frame. Then HTTP clients and one in-process
// Loader, which never releases: after every HTTP waiter has released, its
// bytes still match the owner's. Every audit record's seal verifies
// against the owner's bytes afterwards, so none points into a frame.
func TestPoisonedCoalescedPeerFill(t *testing.T) {
	was := slab.PoisonOnReset(true)
	defer slab.PoisonOnReset(was)
	key := []byte("release-test-key")
	gate := &gatedTransport{}
	type record struct {
		node int
		rec  proxy.RequestRecord
	}
	var mu sync.Mutex
	var audit []record
	lc, err := cluster.StartLocal(anyApplet{}, 3, func(i int) proxy.Config {
		cfg := verifyingProxyCfg(i)
		cfg.OnAudit = func(r proxy.RequestRecord) {
			mu.Lock()
			audit = append(audit, record{i, r})
			mu.Unlock()
		}
		return cfg
	}, func(int) cluster.Config {
		return cluster.Config{AttestKey: key, AttestQuorum: 2, Replication: 2,
			HotThreshold: -1, PrefetchK: -1, GossipInterval: -1, Dial: gate.dialer().Dial}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// A class each round whose entry node neither owns nor replicates it.
	entry := 0
	var classes []string
	for i := 0; len(classes) < 2; i++ {
		class := fmt.Sprintf("app/Coalesced%04d", i)
		owners := lc.Nodes[0].Ring().Owners(cluster.KeyFor("dvm", class), 2)
		if owners[0] != lc.Nodes[entry].Self() && owners[1] != lc.Nodes[entry].Self() {
			classes = append(classes, class)
		}
	}
	owned := map[string][]byte{}
	for _, class := range classes {
		owner := lc.Nodes[0].Ring().Owner(cluster.KeyFor("dvm", class))
		for _, n := range lc.Nodes {
			if n.Self() == owner {
				res, err := n.Request(context.Background(), proxy.Lookup{Client: "preload", Arch: "dvm", Class: class})
				if err != nil {
					t.Fatal(err)
				}
				owned[class] = res.Data
			}
		}
	}

	const clients = 4
	coalesce := func(class string, loader bool) [][]byte {
		open := make(chan struct{})
		gate.gate.Store(&open)
		waiters := clients
		if loader {
			waiters++
		}
		got := make([][]byte, waiters)
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				load := proxy.HTTPLoader(lc.URLs()[entry], fmt.Sprint("http", i), "dvm").Load
				if i == clients {
					load = lc.Nodes[entry].Proxy().Loader("inproc", "dvm").Load
				}
				var err error
				if got[i], err = load(class); err != nil {
					t.Error(err)
				}
			}(i)
		}
		waitFlightWaiters(t, lc.Nodes[entry], waiters)
		gate.gate.Store(nil)
		close(open)
		wg.Wait()
		for i, b := range got {
			if !bytes.Equal(b, owned[class]) {
				t.Errorf("%s: waiter %d got %d bytes that differ from the owner's %d", class, i, len(b), len(owned[class]))
			}
		}
		return got
	}
	coalesce(classes[0], false)
	got := coalesce(classes[1], true)
	lc.Close() // every handler, and so every release, has returned
	if inproc := got[clients]; !bytes.Equal(inproc, owned[classes[1]]) {
		t.Errorf("the Loader's bytes changed after the HTTP waiters released: %.16q…", inproc)
	}
	if s := lc.Nodes[entry].Proxy().Stats(); s.PeerHits != 2 || s.Coalesced != 2*clients-1 {
		t.Errorf("peer hits %d, coalesced %d: want 2 fills shared by %d followers", s.PeerHits, s.Coalesced, 2*clients-1)
	}

	authority := attest.New(attest.Config{Key: key})
	mu.Lock()
	defer mu.Unlock()
	seen := 0
	for _, r := range audit {
		if r.node != entry {
			continue
		}
		seen++
		if err := authority.Verify(r.rec.Attestation, "dvm", r.rec.Class, owned[r.rec.Class]); err != nil {
			t.Errorf("audit record for %s (%s): %v", r.rec.Class, r.rec.Client, err)
		}
	}
	if want := 2*clients + 1; seen != want {
		t.Errorf("%d audit records at the entry node, want %d", seen, want)
	}
}

// poolsAreLossy reports whether the test binary was built with -race,
// where sync.Pool drops entries on purpose and an allocation budget
// measures the detector: the budget tests then only log.
func poolsAreLossy() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// allocatedBy reports the bytes the whole process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPeerFillKeepsNoFrame: a 48 KiB class resident at its owner, loaded
// through the other node's HTTP front end, costs that node's client the
// peer hop and nothing class-sized beyond the owner's own front end: the
// answer frame goes back to the pool once written.
func TestPeerFillKeepsNoFrame(t *testing.T) {
	const size = 48 << 10
	lc, err := cluster.StartLocal(anyApplet{}, 2, nil, func(int) cluster.Config {
		return cluster.Config{Replication: 1, HotThreshold: -1, PrefetchK: -1, GossipInterval: -1}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ownerIdx := 0
	class := classesOwnedBy(t, lc.Nodes[0].Ring(), lc.Nodes[ownerIdx].Self(), 1)[0]
	data := bytes.Repeat([]byte{0xCA}, size)
	if lc.Nodes[ownerIdx].Proxy().Warm([]*proxy.Artifact{{Arch: "dvm", Class: class, Data: data, Source: proxy.ReasonReplica}}) != 1 {
		t.Fatal("could not make the class resident at its owner")
	}
	perLoad := func(node int) uint64 {
		loader := proxy.HTTPLoader(lc.URLs()[node], "c", "dvm")
		load := func() {
			if got, err := loader.Load(class); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("load through node %d: %d bytes, err %v", node, len(got), err)
			}
		}
		load() // connections, pools, lazily built tables
		load()
		const loads = 50
		least := ^uint64(0)
		for round := 0; round < 5; round++ {
			if cost := allocatedBy(func() {
				for i := 0; i < loads; i++ {
					load()
				}
			}) / loads; cost < least {
				least = cost
			}
		}
		return least
	}
	owner, viaPeer := perLoad(ownerIdx), perLoad(1-ownerIdx)
	if extra := int64(viaPeer) - int64(owner); extra >= 16<<10 && !poolsAreLossy() {
		t.Errorf("a peer fill of a %d-byte class allocates %d bytes more than a hit at its owner, want < %d", size, extra, 16<<10)
	}
	t.Logf("%d-byte class: %d bytes per load at the owner, %d through the peer (%d more)", size, owner, viaPeer, int64(viaPeer)-int64(owner))
}

// TestPeerHopsAskForNoGzip: nodes on their own peer transports exchange
// fills, votes, replica pushes, gossip and a handoff pull, and no peer
// route ever sees an Accept-Encoding header; every frame still decodes, so
// every load answers the bytes its owner holds.
func TestPeerHopsAskForNoGzip(t *testing.T) {
	const nodes = 3
	var mu sync.Mutex
	routes := map[string]int{}
	var asked []string
	servers := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	var lc []*cluster.Node
	for i, srv := range servers {
		n, err := cluster.NewNode(anyApplet{}, verifyingProxyCfg(i), cluster.Config{
			Self: urls[i], Peers: urls, AttestKey: []byte("gzip-test-key"), AttestQuorum: 2,
			Replication: 2, HotThreshold: -1, PrefetchK: -1, GossipInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lc = append(lc, n)
		h := n.Handler()
		srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/peer/") {
				mu.Lock()
				routes[r.URL.Path]++
				if v := r.Header.Values("Accept-Encoding"); v != nil {
					asked = append(asked, fmt.Sprintf("%s: %q", r.URL.Path, v))
				}
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
		srv.Start()
	}
	defer func() {
		for i := range servers {
			servers[i].Close()
			lc[i].Close()
		}
	}()

	ctx := context.Background()
	for i, n := range lc {
		for j := 0; j < 4; j++ {
			class := fmt.Sprintf("app/Gzip%d_%d", i, j)
			res, err := n.Request(ctx, proxy.Lookup{Client: "c", Arch: "dvm", Class: class})
			if err != nil {
				t.Fatal(err)
			}
			owner := n.Ring().Owner(cluster.KeyFor("dvm", class))
			for _, o := range lc {
				if o.Self() == owner {
					if held := o.Proxy().Peek("dvm", class); held == nil || !bytes.Equal(held.Data, res.Data) {
						t.Errorf("%s through %s: bytes differ from its owner's", class, n.Self())
					}
				}
			}
		}
		n.GossipNow(ctx)
		n.PullHandoff(ctx)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, route := range []string{cluster.BatchPath, cluster.VotePath, "/peer/v1/gossip"} {
		if routes[route] == 0 {
			t.Errorf("no request reached %s (routes: %v)", route, routes)
		}
	}
	for _, a := range asked {
		t.Errorf("a peer asked for an encoding: %s", a)
	}
	for _, n := range lc {
		if e := n.PeerErrors(); e != 0 {
			t.Errorf("%s: %d peer errors", n.Self(), e)
		}
	}
}
