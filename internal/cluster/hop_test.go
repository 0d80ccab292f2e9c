package cluster_test

// What an attested cold load sends over which hop, and what a node keeps
// of its peer connections: three exchanges (client, fill, vote) with the
// voter keeping its own output as the key's replica, no trace header on
// any hop unless the entry point asked for a trace, histograms fed
// regardless, peer connections pooled per node and released by Close.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// attestedFleet is the cold_attest_3n fleet shape: 3 nodes, quorum-2
// attestation, replication 2, manual membership, no prefetch or hot-key
// copies. dial, when set, is every node's peer dialer.
func attestedFleet(t *testing.T, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *cluster.LocalCluster {
	t.Helper()
	lc, err := cluster.StartLocal(anyApplet{}, 3, verifyingProxyCfg, func(int) cluster.Config {
		return cluster.Config{
			AttestKey:      []byte("hop-test-key"),
			AttestQuorum:   2,
			Replication:    2,
			HotThreshold:   -1,
			PrefetchK:      -1,
			GossipInterval: -1,
			Dial:           dial,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

// coldClasses draws n class names none of which node entry owns, so a
// load entering there takes the peer hop.
func coldClasses(lc *cluster.LocalCluster, entry int, prefix string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		class := fmt.Sprintf("app/%s%04d", prefix, i)
		if lc.Nodes[entry].Ring().Owner(cluster.KeyFor("dvm", class)) != lc.Nodes[entry].Self() {
			out = append(out, class)
		}
	}
	return out
}

// waitStored waits until the fleet holds at least want replicas, kept by
// voters or pushed, so whatever replica hop a load causes is part of what
// a test observes.
func waitStored(t *testing.T, lc *cluster.LocalCluster, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var stored int64
		for _, n := range lc.Nodes {
			stored += n.Metrics().ReplicaStored.Load()
		}
		if stored >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas stored = %d, want >= %d", stored, want)
		}
	}
}

// recordedRoutes counts the requests rec's connections carried, by
// route, and lists every trace header sent or received on any of them.
func recordedRoutes(t *testing.T, rec *wireRecorder) (routes map[string]int, traced []string) {
	routes = map[string]int{}
	for _, e := range rec.exchanges(t) {
		route := e.path
		for _, p := range []string{"/classes/", cluster.BatchPath, cluster.VotePath} {
			if strings.HasPrefix(route, p) {
				route = p
			}
		}
		routes[route]++
		for dir, hdr := range map[string]http.Header{"request": e.header, "response": e.answer} {
			for _, name := range []string{telemetry.TraceHeader, telemetry.TraceSpansHeader} {
				if v := hdr.Values(name); v != nil {
					traced = append(traced, fmt.Sprintf("%s %s %s: %q", route, dir, name, v))
				}
			}
		}
	}
	return routes, traced
}

// TestUntracedHopsCarryNoTrace: a cold attested load through HTTPLoader,
// with nobody asking for a trace, crosses three HTTP exchanges — client →
// entry, entry → owner fill, owner → variant vote — and not one of them
// sends or receives X-DVM-Trace or X-DVM-Trace-Spans. It also proves
// cluster.Config.Dial is honoured: the recorder sees every peer hop.
func TestUntracedHopsCarryNoTrace(t *testing.T) {
	rec := &wireRecorder{}
	lc := attestedFleet(t, rec.Dial)
	defer lc.Close()
	const loads = 3
	loader := proxy.HTTPLoaderWith(lc.URLs()[0], "client", "dvm", proxy.LoaderOptions{Dial: rec.Dial})
	for _, class := range coldClasses(lc, 0, "Untraced", loads) {
		if _, err := loader.Load(class); err != nil {
			t.Fatal(err)
		}
	}
	waitStored(t, lc, loads)

	routes, traced := recordedRoutes(t, rec)
	for _, route := range []string{"/classes/", cluster.BatchPath, cluster.VotePath} {
		if routes[route] < loads {
			t.Errorf("%s carried %d requests, want >= %d (routes: %v)", route, routes[route], loads, routes)
		}
	}
	for _, s := range traced {
		t.Errorf("untraced load carried a trace header: %s", s)
	}
}

// TestVoterKeepsItsOwnOutput: on the cold_attest_3n fleet shape the
// owner's first variant is also the key's replica owner, so the vote is
// the replica. After N cold attested loads each key's replica holds bytes
// identical to the owner's under an attestation equal to the owner's, seal
// included, and nothing was pushed: a load is exactly one client
// exchange, one fill and one vote.
func TestVoterKeepsItsOwnOutput(t *testing.T) {
	rec := &wireRecorder{}
	lc := attestedFleet(t, rec.Dial)
	defer lc.Close()
	const loads = 6
	loader := proxy.HTTPLoaderWith(lc.URLs()[0], "client", "dvm", proxy.LoaderOptions{Dial: rec.Dial})
	classes := coldClasses(lc, 0, "Kept", loads)
	for _, class := range classes {
		if _, err := loader.Load(class); err != nil {
			t.Fatal(err)
		}
	}
	byURL := map[string]*cluster.Node{}
	for _, n := range lc.Nodes {
		byURL[n.Self()] = n
	}
	for _, class := range classes {
		owners := lc.Nodes[0].Ring().Owners(cluster.KeyFor("dvm", class), 2)
		owned := byURL[owners[0]].Proxy().Peek("dvm", class)
		replica := byURL[owners[1]].Proxy().Peek("dvm", class)
		if owned == nil || replica == nil {
			t.Fatalf("%s: owner holds %v, replica holds %v", class, owned != nil, replica != nil)
		}
		if !bytes.Equal(replica.Data, owned.Data) || replica.Source != proxy.ReasonReplica {
			t.Errorf("%s: replica (source %q) differs from the owner's artifact", class, replica.Source)
		}
		if !reflect.DeepEqual(replica.Att, owned.Att) {
			t.Errorf("%s: replica attestation %+v, owner's %+v", class, replica.Att, owned.Att)
		}
		if want := []string{owners[0], owners[1]}; owned.Att == nil || !reflect.DeepEqual(owned.Att.Voters, want) {
			t.Errorf("%s: sealed by %+v, want voters %v", class, owned.Att, want)
		}
	}
	var pushed, stored int64
	for _, n := range lc.Nodes {
		pushed += n.ReplicasPushed()
		stored += n.Metrics().ReplicaStored.Load()
	}
	if pushed != 0 || stored != loads {
		t.Errorf("replicas pushed = %d, stored = %d; want 0 and %d (every copy kept by its voter)", pushed, stored, loads)
	}
	routes, _ := recordedRoutes(t, rec)
	if want := map[string]int{"/classes/": loads, cluster.BatchPath: loads, cluster.VotePath: loads}; !reflect.DeepEqual(routes, want) {
		t.Errorf("exchanges by route = %v, want %v", routes, want)
	}
}

// TestFleetMetricsIndependentOfTracing: after N untraced cold loads on an
// attested fleet, the owner-side histograms have counted exactly N
// stages each, with real durations.
func TestFleetMetricsIndependentOfTracing(t *testing.T) {
	lc := attestedFleet(t, nil)
	defer lc.Close()
	const loads = 4
	loader := proxy.HTTPLoader(lc.URLs()[0], "client", "dvm")
	for _, class := range coldClasses(lc, 0, "Metrics", loads) {
		if _, err := loader.Load(class); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(name string) telemetry.HistSnapshot {
		var s telemetry.HistSnapshot
		for _, n := range lc.Nodes {
			if err := s.Merge(n.Proxy().Telemetry().Histogram(name, nil).Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// Entry and owner both count the request; the owner alone fetches,
	// runs the pipeline and seals.
	for name, want := range map[string]int64{
		"request_seconds": 2 * loads, "origin_fetch_seconds": loads,
		"pipeline_seconds": loads, "attest_quorum_seconds": loads,
	} {
		if s := sum(name); s.Count() != want || s.Sum <= 0 {
			t.Errorf("%s: count %d sum %v, want count %d and a positive sum", name, s.Count(), s.Sum, want)
		}
	}
	var proxyTime time.Duration
	for _, n := range lc.Nodes {
		proxyTime += n.Proxy().Stats().ProxyTime
	}
	if proxyTime <= 0 {
		t.Errorf("fleet ProxyTime = %v after %d untraced cold loads", proxyTime, loads)
	}
}

// TestPeerConnectionsAreReused: a node keeps its peer connections. 500
// cold attested loads from 2 concurrent clients, entering at two nodes —
// three exchanges per load, two of them between nodes: a fill and a
// variant vote, the voter keeping its output as the replica — dial no more
// connections than the exchanges that can be in flight at once on each
// ordered pair of nodes. A load holds at most one exchange on any ordered
// pair (its fill and its vote never share a direction between the same
// two nodes), so that is one per client, plus one dial per pair that lost
// its race to a connection coming free: pairs × (clients + 1). Once those
// exist, the second 250 loads dial almost none. A pool of two idle
// connections per host, shared by every node in the process, redials
// throughout (80 connections before nodes owned their transport).
func TestPeerConnectionsAreReused(t *testing.T) {
	conns := cluster.CountConns(t)
	lc := attestedFleet(t, nil)
	defer lc.Close()
	const clients, perClient = 2, 250
	pairs := int64(len(lc.Nodes) * (len(lc.Nodes) - 1))
	load := func(half string) {
		var wg sync.WaitGroup
		var failed atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, class := range coldClasses(lc, c, fmt.Sprintf("Reuse%s%d_", half, c), perClient/2) {
					if _, err := lc.Nodes[c].Request(context.Background(), proxy.Lookup{Client: fmt.Sprint(c), Arch: "dvm", Class: class}); err != nil {
						failed.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			t.Fatalf("%d loads failed", n)
		}
	}
	load("A")
	waitStored(t, lc, clients*perClient/2)
	first := conns.Accepted()
	load("B")
	waitStored(t, lc, clients*perClient)
	total := conns.Accepted()
	t.Logf("fleet accepted %d connections for %d cold loads, %d of them during the second half", total, clients*perClient, total-first)
	if bound := pairs * (clients + 1); total > bound {
		t.Errorf("fleet accepted %d connections for %d cold loads, want <= %d", total, clients*perClient, bound)
	}
	if total-first > pairs {
		t.Errorf("the second %d loads dialed %d new connections, want <= %d", clients*perClient/2, total-first, pairs)
	}
}

// TestNodeCloseReleasesConnections: a node owns its peer connections and
// Close releases them. After cold attested loads — three exchanges each,
// the voter keeping its output as the replica — a crashed node
// (LocalCluster.Stop) leaves no connection open at the peers that outlive
// it, and fleets started and closed over and over leave no goroutines
// behind.
func TestNodeCloseReleasesConnections(t *testing.T) {
	conns := cluster.CountConns(t)
	lc := attestedFleet(t, nil)
	for entry := 0; entry < 2; entry++ {
		for _, class := range coldClasses(lc, entry, fmt.Sprintf("Stop%d_", entry), 20) {
			if _, err := lc.Nodes[entry].Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitStored(t, lc, 40)
	if conns.Open(2) == 0 {
		t.Fatal("node 2 holds no peer connections to release")
	}
	// Nodes 0 and 1 crash; node 2's own connections went to their servers
	// and die with them, and theirs to node 2 must be released by Close.
	lc.Stop(0)
	lc.Stop(1)
	open := conns.Open(2)
	for deadline := time.Now().Add(5 * time.Second); open > 0 && time.Now().Before(deadline); open = conns.Open(2) {
		time.Sleep(10 * time.Millisecond)
	}
	if open > 0 {
		t.Errorf("%d connections from crashed nodes still open at the surviving node", open)
	}
	lc.Close()

	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		lc := attestedFleet(t, nil)
		for _, class := range coldClasses(lc, 0, fmt.Sprintf("Close%02d_", round), 50) {
			if _, err := lc.Nodes[0].Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err != nil {
				t.Fatal(err)
			}
		}
		lc.Close()
	}
	// Connection goroutines exit once their socket is closed; give them a
	// moment, then compare.
	const slack = 8
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before+slack && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+slack {
		t.Errorf("goroutines: %d before 20 fleets, %d after they closed (slack %d)", before, after, slack)
	}
}
