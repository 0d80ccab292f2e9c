package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/compiler"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

// rejectOrigin serves any class name: names under bad/ fail verification
// (run() declares ()I but returns void), everything else is a valid
// class. An optional gate holds fetches until it is closed.
type rejectOrigin struct {
	gate    chan struct{}
	fetches atomic.Int64
}

func (o *rejectOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	o.fetches.Add(1)
	if o.gate != nil {
		select {
		case <-o.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	b := classgen.NewClass(name, "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	if strings.HasPrefix(name, "bad/") {
		m.Return()
	} else {
		m.IConst(7).IReturn()
	}
	return b.BuildBytes()
}

const rejBase = "jvm" // the AOT base architecture of every proxy below

func rejProxyCfg(dir string) proxy.Config {
	return proxy.Config{
		Pipeline:     rewrite.NewPipeline(verifier.Filter(), compiler.Filter()),
		CacheEnabled: true,
		DiskCacheDir: dir,
		AOTBaseArch:  rejBase,
	}
}

// rejFleet starts a manual-mode 2-node fleet over a rejectOrigin.
func rejFleet(t *testing.T, ccfg Config) []*Node {
	t.Helper()
	ccfg.GossipInterval = -1
	lc, err := StartLocal(&rejectOrigin{}, 2, func(int) proxy.Config { return rejProxyCfg("") },
		func(int) Config { return ccfg })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc.Nodes
}

// drawClass draws a class name under prefix whose base-arch key owner
// owns (ring placement hashes ephemeral ports, so names are drawn, not
// fixed).
func drawClass(t *testing.T, n *Node, prefix, owner string) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		class := fmt.Sprintf("%sK%d", prefix, i)
		if n.Ring().Owner(KeyFor(rejBase, class)) == owner {
			return class
		}
	}
	t.Fatalf("ring gives %s no keys", owner)
	return ""
}

func rejRequest(t *testing.T, p *proxy.Proxy, arch, class string) proxy.Result {
	t.Helper()
	res, err := p.Request(withLocalOnly(context.Background()), proxy.Lookup{Client: "c", Arch: arch, Class: class})
	if err != nil {
		t.Fatalf("%s/%s: %v", arch, class, err)
	}
	return res
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRejectedSurvivesEveryPath: the verifier's Rejected flag is part of
// the artifact, so it must arrive wherever the artifact does. Each row
// moves a rejected class to a proxy over one path and returns that
// proxy with the result the path itself produced (nil = the path is a
// push; look at what became resident). Then, on every row alike: the
// result says Rejected, a later hit says Rejected, and a request for
// the compiled architecture never hands the replacement to the AOT
// compiler.
func TestRejectedSurvivesEveryPath(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		name     string
		resident bool // the artifact stays in the returned proxy's store
		move     func(t *testing.T) (*proxy.Proxy, string, *proxy.Result)
	}{
		{"origin", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			p := proxy.New(&rejectOrigin{}, rejProxyCfg(""))
			res := rejRequest(t, p, rejBase, "bad/A")
			return p, "bad/A", &res
		}},
		{"coalesced follower", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			o := &rejectOrigin{gate: make(chan struct{})}
			p := proxy.New(o, rejProxyCfg(""))
			results := make(chan proxy.Result, 2)
			for i := 0; i < 2; i++ {
				go func() {
					res, _ := p.Request(ctx, proxy.Lookup{Client: "c", Arch: rejBase, Class: "bad/A"})
					results <- res
				}()
			}
			waitUntil(t, "the follower to join the flight", func() bool { return p.Health().Gauges["flight_waiters"] == 2 })
			close(o.gate)
			res := <-results
			if other := <-results; other.Info.Coalesced {
				res = other
			}
			if !res.Info.Coalesced || len(res.Data) == 0 {
				t.Fatalf("no served follower: %+v", res.Info)
			}
			return p, "bad/A", &res
		}},
		{"memory hit", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			p := proxy.New(&rejectOrigin{}, rejProxyCfg(""))
			rejRequest(t, p, rejBase, "bad/A")
			res := rejRequest(t, p, rejBase, "bad/A")
			if !res.Info.CacheHit {
				t.Fatal("second request missed")
			}
			return p, "bad/A", &res
		}},
		{"disk reload after restart", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			dir := t.TempDir()
			rejRequest(t, proxy.New(&rejectOrigin{}, rejProxyCfg(dir)), rejBase, "bad/A")
			o := &rejectOrigin{}
			p := proxy.New(o, rejProxyCfg(dir))
			res := rejRequest(t, p, rejBase, "bad/A")
			if !res.Info.CacheHit || o.fetches.Load() != 0 {
				t.Fatalf("restart did not serve from disk: hit=%v fetches=%d", res.Info.CacheHit, o.fetches.Load())
			}
			return p, "bad/A", &res
		}},
		{"peer fill", false, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 1, PrefetchK: -1, HotThreshold: -1})
			class := drawClass(t, nodes[0], "bad/", nodes[1].Self())
			res, err := nodes[0].Request(ctx, proxy.Lookup{Client: "c", Arch: rejBase, Class: class})
			if err != nil || res.Info.Peer != nodes[1].Self() {
				t.Fatalf("not peer-filled: peer=%q err=%v", res.Info.Peer, err)
			}
			return nodes[0].Proxy(), class, &res
		}},
		{"hot CacheLocal copy", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 1, PrefetchK: -1, HotThreshold: 1})
			class := drawClass(t, nodes[0], "bad/", nodes[1].Self())
			res, err := nodes[0].Request(ctx, proxy.Lookup{Client: "c", Arch: rejBase, Class: class})
			if err != nil || nodes[0].HotReplicas() != 1 {
				t.Fatalf("fill not kept as a hot copy: hot=%d err=%v", nodes[0].HotReplicas(), err)
			}
			return nodes[0].Proxy(), class, &res
		}},
		{"replica push", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 2, PrefetchK: -1})
			class := drawClass(t, nodes[0], "bad/", nodes[1].Self())
			rejRequest(t, nodes[1].Proxy(), rejBase, class)
			waitUntil(t, "the replica to land", func() bool { return nodes[0].Proxy().Peek(rejBase, class) != nil })
			return nodes[0].Proxy(), class, nil
		}},
		{"kept by voter", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 2, PrefetchK: -1, AttestKey: []byte("rejected-key"), AttestQuorum: 2})
			class := drawClass(t, nodes[0], "bad/", nodes[1].Self())
			rejRequest(t, nodes[1].Proxy(), rejBase, class)
			if nodes[0].ReplicasStored() != 1 || nodes[1].ReplicasPushed() != 0 {
				t.Fatalf("not kept by the voter: stored %d, pushed %d", nodes[0].ReplicasStored(), nodes[1].ReplicasPushed())
			}
			return nodes[0].Proxy(), class, nil
		}},
		{"handoff pull", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 1, PrefetchK: -1})
			// Node 1 holds a key node 0 owns — as after node 0 joins.
			class := drawClass(t, nodes[0], "bad/", nodes[0].Self())
			rejRequest(t, nodes[1].Proxy(), rejBase, class)
			if got := nodes[0].pullFrom(ctx, nodes[1].Self()); got != 1 {
				t.Fatalf("pullFrom moved %d entries, want 1", got)
			}
			return nodes[0].Proxy(), class, nil
		}},
		{"drain push", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 1, PrefetchK: -1})
			class := drawClass(t, nodes[0], "bad/", nodes[1].Self())
			rejRequest(t, nodes[1].Proxy(), rejBase, class)
			if err := nodes[1].Drain(ctx); err != nil {
				t.Fatal(err)
			}
			return nodes[0].Proxy(), class, nil
		}},
		{"prefetch piggyback", true, func(t *testing.T) (*proxy.Proxy, string, *proxy.Result) {
			nodes := rejFleet(t, Config{Replication: 1, HotThreshold: -1})
			first := drawClass(t, nodes[0], "ok/", nodes[1].Self())
			class := drawClass(t, nodes[0], "bad/", nodes[1].Self())
			nodes[1].FeedProfile(rejBase, []string{first, class})
			rejRequest(t, nodes[1].Proxy(), rejBase, class)
			if _, err := nodes[0].Request(ctx, proxy.Lookup{Client: "c", Arch: rejBase, Class: first}); err != nil {
				t.Fatal(err)
			}
			if nodes[0].PrefetchReceived() != 1 {
				t.Fatalf("prefetch_received_total = %d, want 1", nodes[0].PrefetchReceived())
			}
			return nodes[0].Proxy(), class, nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p, class, res := row.move(t)
			if res != nil && !res.Info.Rejected {
				t.Errorf("the path's own result lost Rejected: %+v", res.Info)
			}
			if row.resident {
				if art := p.Peek(rejBase, class); art == nil || !art.Rejected {
					t.Fatalf("resident artifact = %+v, want Rejected", art)
				}
				if hit := rejRequest(t, p, rejBase, class); !hit.Info.CacheHit || !hit.Info.Rejected {
					t.Errorf("later hit: CacheHit=%v Rejected=%v, want true/true", hit.Info.CacheHit, hit.Info.Rejected)
				}
			}
			compiled := rejRequest(t, p, compiler.ArchDVM, class)
			if !compiled.Info.Rejected {
				t.Error("compiled-arch request lost Rejected")
			}
			if got := p.Stats().CompileMisses; got != 0 {
				t.Errorf("compile_misses = %d: the replacement class reached the compiler", got)
			}
		})
	}
}
