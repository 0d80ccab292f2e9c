package cluster_test

// Where a sealed artifact's copies come from when the voter cannot keep
// its own output, and what the replica push and the vote owe the links
// they cross: a push honours the peer's breaker and Close, and a variant
// that cannot derive is a refusal, not a dead link.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dvm/internal/attest"
	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

// voteHook is a peer dialer that runs after, once, when the first vote
// answer comes back: the moment between the vote and the seal.
type voteHook struct {
	once  sync.Once
	after func()
}

func (h *voteHook) dialer() *hookDial {
	return &hookDial{
		write: func(c *hookConn, p []byte) (int, error) {
			c.flag = isRequest(p, http.MethodPost, cluster.VotePath)
			return c.Conn.Write(p)
		},
		read: func(c *hookConn, n int) {
			if c.flag && n > 0 {
				c.flag = false
				h.once.Do(h.after)
			}
		},
	}
}

// drawClass draws a class name until ok accepts it.
func drawClass(t *testing.T, prefix string, ok func(class string) bool) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		if class := fmt.Sprintf("app/%s%04d", prefix, i); ok(class) {
			return class
		}
	}
	t.Fatalf("no %s class fits", prefix)
	return ""
}

// TestVoteFallbacksPlaceEveryReplica: whenever the voter does not keep
// its own output — no offer was made, it was not a ring owner in its own
// view, it kept one copy of two, the ring moved under the owner, or it
// disagreed — the owner pushes instead, and every row ends with the key
// on each of its R owners in the owner's current view, bytes and
// attestation equal to the owner's.
func TestVoteFallbacksPlaceEveryReplica(t *testing.T) {
	key := []byte("vote-fallback-key")
	rows := []struct {
		name         string
		cfg          cluster.Config
		byzantine    bool                                         // node 1 runs a bit-flipping pipeline
		hook         bool                                         // node 0's peer transport is a voteHook
		setUp        func(t *testing.T, lc *cluster.LocalCluster) // before the class is drawn
		fits         func(lc *cluster.LocalCluster, class string) bool
		kept, pushed int64
	}{
		{name: "quorum 3", cfg: cluster.Config{AttestKey: key, AttestQuorum: 3}, pushed: 1},
		{name: "attestation off", cfg: cluster.Config{}, pushed: 1},
		{name: "replication 3", cfg: cluster.Config{AttestKey: key, AttestQuorum: 2, Replication: 3}, kept: 1, pushed: 1},
		{
			// Node 1 has met a fourth node that node 0 has not, and in node 1's
			// view the fourth node, not node 1, is the key's replica owner.
			name: "voter's own view excludes it", cfg: cluster.Config{AttestKey: key, AttestQuorum: 2},
			setUp: func(t *testing.T, lc *cluster.LocalCluster) {
				d, err := lc.AddNode([]string{lc.Nodes[1].Self()})
				if err != nil {
					t.Fatal(err)
				}
				lc.Nodes[d].GossipNow(context.Background())
			},
			fits: func(lc *cluster.LocalCluster, class string) bool {
				return !slices.Contains(lc.Nodes[1].Ring().Owners(cluster.KeyFor("dvm", class), 2), lc.Nodes[1].Self())
			},
			pushed: 1,
		},
		{
			// A fourth node joins node 0's view after the vote and before the
			// seal, and takes the key's replica position from node 1.
			name: "ring moves between vote and publish", cfg: cluster.Config{AttestKey: key, AttestQuorum: 2}, hook: true,
			setUp: func(t *testing.T, lc *cluster.LocalCluster) {
				if _, err := lc.AddNode([]string{lc.Nodes[0].Self()}); err != nil {
					t.Fatal(err)
				}
			},
			fits: func(lc *cluster.LocalCluster, class string) bool {
				ring, err := cluster.NewRing(lc.URLs(), 0, 0)
				if err != nil {
					panic(err)
				}
				after := ring.Owners(cluster.KeyFor("dvm", class), 2)
				return slices.Contains(after, lc.Nodes[0].Self()) && slices.Contains(after, lc.Nodes[3].Self())
			},
			kept: 1, pushed: 1,
		},
		{name: "bit-flipping voter", cfg: cluster.Config{AttestKey: key, AttestQuorum: 2}, byzantine: true, pushed: 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var adversary netsim.Byzantine
			hook := &voteHook{}
			lc, err := cluster.StartLocal(anyApplet{}, 3, func(i int) proxy.Config {
				cfg := verifyingProxyCfg(i)
				if row.byzantine && i == 1 {
					cfg.Pipeline = rewrite.NewPipeline(verifier.Filter(), adversary.Filter())
				}
				return cfg
			}, func(i int) cluster.Config {
				cfg := row.cfg
				cfg.GossipInterval, cfg.HotThreshold, cfg.PrefetchK = -1, -1, -1
				if row.hook && i == 0 {
					cfg.Dial = hook.dialer().Dial
				}
				return cfg
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			if row.setUp != nil {
				row.setUp(t, lc)
			}
			if row.hook {
				hook.after = func() { lc.Nodes[3].GossipNow(context.Background()) }
			}
			owner := lc.Nodes[0]
			r := max(row.cfg.Replication, cluster.DefaultReplication)
			class := drawClass(t, "Fallback", func(class string) bool {
				owners := owner.Ring().Owners(cluster.KeyFor("dvm", class), r)
				return owners[0] == owner.Self() && owners[1] == lc.Nodes[1].Self() && (row.fits == nil || row.fits(lc, class))
			})

			res, err := owner.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class})
			if err != nil {
				t.Fatal(err)
			}
			byURL := map[string]*cluster.Node{}
			for _, n := range lc.Nodes {
				byURL[n.Self()] = n
			}
			owners := owner.Ring().Owners(cluster.KeyFor("dvm", class), r)
			if row.hook && !slices.Contains(owners, lc.Nodes[3].Self()) {
				t.Fatalf("the ring did not move under the owner: owners %v", owners)
			}
			for _, o := range owners {
				pollUntil(t, "a copy at "+o, func() bool { return byURL[o].Proxy().Peek("dvm", class) != nil })
				got := byURL[o].Proxy().Peek("dvm", class)
				if !bytes.Equal(got.Data, res.Data) || !reflect.DeepEqual(got.Att, res.Art.Att) {
					t.Errorf("%s holds other bytes or another attestation than the owner serves", o)
				}
			}
			// The owner counts a push once the receiver has answered it.
			pollUntil(t, "the pushes to be counted", func() bool { return owner.ReplicasPushed() >= row.pushed })
			var stored int64
			for _, n := range lc.Nodes {
				stored += n.Metrics().ReplicaStored.Load()
			}
			if pushed := owner.ReplicasPushed(); pushed != row.pushed || stored != row.kept+row.pushed {
				t.Errorf("pushed %d, stored %d; want %d pushed and %d kept", pushed, stored, row.pushed, row.kept)
			}
			if row.byzantine && adversary.Corruptions.Load() == 0 {
				t.Error("the bit-flipping pipeline never ran")
			}
		})
	}
}

// TestReplicaPushUnderBreakerAndClose: a replica push runs under the
// peer's circuit breaker and on the node's lifetime. Pushes to a peer
// whose link fails stop reaching the wire once the breaker opens, and
// pushes queued to a black-holed peer, each of which would otherwise hang
// for the full peer timeout, do not hold up Close.
func TestReplicaPushUnderBreakerAndClose(t *testing.T) {
	// start runs two nodes whose links to each other hang until the
	// caller's deadline, which is how a partition looks to TCP, instead of
	// failing at once like a refused connection.
	start := func(t *testing.T, peerTimeout time.Duration) (*cluster.LocalCluster, []*netsim.LinkFaults) {
		meshes := []*netsim.LinkFaults{netsim.NewLinkFaults(nil), netsim.NewLinkFaults(nil)}
		lc, err := cluster.StartLocal(anyApplet{}, 2, verifyingProxyCfg, func(i int) cluster.Config {
			return cluster.WithLink(cluster.Config{
				Replication: 2, GossipInterval: -1, HotThreshold: -1, PrefetchK: -1,
				PeerTimeout: peerTimeout, Dial: meshes[i].Dial,
			}, 2, time.Minute)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lc.Close)
		hosts := []string{strings.TrimPrefix(lc.URLs()[0], "http://"), strings.TrimPrefix(lc.URLs()[1], "http://")}
		meshes[0].SetLink(hosts[1], netsim.FaultSpec{HangRate: 1})
		meshes[1].SetLink(hosts[0], netsim.FaultSpec{HangRate: 1})
		return lc, meshes
	}
	load := func(t *testing.T, lc *cluster.LocalCluster, prefix string, n int) {
		for i := 0; i < n; i++ {
			class := drawClass(t, fmt.Sprintf("%s%d_", prefix, i), func(class string) bool {
				return lc.Nodes[0].Ring().Owner(cluster.KeyFor("dvm", class)) == lc.Nodes[0].Self()
			})
			if _, err := lc.Nodes[0].Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("breaker", func(t *testing.T) {
		lc, meshes := start(t, 20*time.Millisecond)
		const pushes, threshold = 6, 2
		load(t, lc, "Breaker", pushes)
		pollUntil(t, "the link breaker to open", func() bool {
			for _, v := range lc.Nodes[0].PeerViews() {
				if v.Member == lc.Nodes[1].Self() {
					return v.Link == "open"
				}
			}
			return false
		})
		time.Sleep(100 * time.Millisecond) // the rest of the queue drains past the open breaker
		if st, _ := meshes[0].LinkStats(strings.TrimPrefix(lc.Nodes[1].Self(), "http://")); st.Calls != threshold {
			t.Errorf("%d pushes reached the black-holed link, want %d (the breaker's threshold)", st.Calls, threshold)
		}
	})

	t.Run("close", func(t *testing.T) {
		lc, _ := start(t, 0) // the default peer timeout, 3 s
		load(t, lc, "Close", 3)
		began := time.Now()
		lc.Nodes[0].Close()
		if took := time.Since(began); took > 500*time.Millisecond {
			t.Errorf("Close took %v with pushes queued to a black-holed peer, want < 500ms", took)
		}
	})
}

// TestUnderivableVoteIsNoLinkFailure: a variant that cannot derive — a
// compile-mode vote sent to a node without AOTBaseArch — answers with a
// per-item refusal. However many such votes it refuses, the owner's link
// breaker to it stays closed and its membership stays alive; the owner
// seals without it, at quorum 1, counted as degraded.
func TestUnderivableVoteIsNoLinkFailure(t *testing.T) {
	const votes, threshold = 4, 2
	lc, err := cluster.StartLocal(anyApplet{}, 2, func(i int) proxy.Config {
		cfg := proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter(), compiler.Filter()), CacheEnabled: true}
		if i == 0 {
			cfg.AOTBaseArch = "jvm"
		}
		return cfg
	}, func(int) cluster.Config {
		return cluster.WithLink(cluster.Config{
			AttestKey: []byte("underivable-key"), AttestQuorum: 2, Replication: 1,
			GossipInterval: -1, HotThreshold: -1, PrefetchK: -1,
		}, threshold, time.Minute)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	owner, peer := lc.Nodes[0], lc.Nodes[1]
	ctx := context.Background()
	classes := make([]string, votes)
	for i := range classes {
		classes[i] = drawClass(t, fmt.Sprintf("Aot%d_", i), func(class string) bool {
			return owner.Ring().Owner(cluster.KeyFor("jvm", class)) == owner.Self() &&
				owner.Ring().Owner(cluster.KeyFor(compiler.ArchDVM, class)) == owner.Self()
		})
	}
	// The base artifacts first (transform votes the peer answers), then
	// the compiled ones back to back: refused votes in a row, well past
	// the breaker's threshold.
	for _, arch := range []string{"jvm", compiler.ArchDVM} {
		for _, class := range classes {
			if _, err := owner.Request(ctx, proxy.Lookup{Client: "c", Arch: arch, Class: class}); err != nil {
				t.Fatalf("%s/%s: %v", arch, class, err)
			}
		}
	}
	if got := owner.Proxy().Stats().CompileMisses; got != votes {
		t.Fatalf("compile_misses = %d, want %d: the derive path did not run", got, votes)
	}
	if got := owner.Health().Counters["attest_degraded_total"]; got != votes {
		t.Errorf("attest_degraded_total = %d, want %d (each compile vote refused)", got, votes)
	}
	for _, v := range owner.PeerViews() {
		if v.Member == peer.Self() && (v.Link != "closed" || v.State != "alive") {
			t.Errorf("after %d refused votes the peer is link %q, state %q; want closed and alive", votes, v.Link, v.State)
		}
	}
}

// TestForgedProposalKeepsNothing: a vote is the one peer request that can
// end in a cache write without passing fromWire, so only an offer a key
// holder sealed may cause one. A client without the service key first asks
// a voter for its digest of bytes the client chose, then posts the same
// vote with the matching commitment and [member, voter] as the voters:
// every condition a request can meet by itself. With no proposal MAC, a MAC
// under another key or an attestation seal in its place, the voter keeps
// nothing. The same offer sealed under the service key is kept, so the MAC
// is what refused the others.
func TestForgedProposalKeepsNothing(t *testing.T) {
	key := []byte("forged-proposal-key")
	lc, err := cluster.StartLocal(anyApplet{}, 2, verifyingProxyCfg, func(int) cluster.Config {
		return cluster.Config{AttestKey: key, AttestQuorum: 2, Replication: 2, GossipInterval: -1, HotThreshold: -1, PrefetchK: -1}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	voter, member := lc.Nodes[1], lc.Nodes[0].Self()
	const class = "app/Forged"
	payload, err := appletClass(class, 999) // not what the origin serves
	if err != nil {
		t.Fatal(err)
	}
	vote := func(prop cluster.Proposal) *cluster.Ballot {
		t.Helper()
		body, _ := (&cluster.BatchRequest{Reason: "vote", Member: member, Arch: "dvm", Classes: []string{class}, Vote: prop}).MarshalBinary()
		resp, err := http.Post(voter.Self()+cluster.VotePath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		answer, _ := io.ReadAll(resp.Body)
		var br cluster.BatchResponse
		if err := br.UnmarshalBinary(answer); resp.StatusCode != http.StatusOK || err != nil || br.Vote == nil {
			t.Fatalf("vote: status %d, %v, ballot %v", resp.StatusCode, err, br.Vote)
		}
		return br.Vote
	}
	digest := vote(cluster.Proposal{Payload: payload}).Digest
	commit := sha256.Sum256([]byte(digest.String()))
	voters := []string{member, voter.Self()}
	offer := cluster.Proposal{Payload: payload, Commit: commit[:], Voters: voters}
	for name, mac := range map[string][]byte{
		"no MAC":                  nil,
		"a MAC under another key": attest.New(attest.Config{Key: []byte("not-the-key")}).SealProposal("dvm", class, "", commit[:], voters),
		"an attestation seal":     attest.New(attest.Config{Key: key}).AttestDigest("dvm", class, digest, 2, voters).Seal,
	} {
		offer.Seal = mac
		if b := vote(offer); b.Kept || b.Digest != digest {
			t.Errorf("%s: kept %v, digest %.12s (want not kept, %.12s)", name, b.Kept, b.Digest, digest)
		}
	}
	if got := voter.Metrics().ReplicaStored.Load(); got != 0 || voter.Proxy().Peek("dvm", class) != nil {
		t.Fatalf("forged offers left %d replicas stored, resident %v", got, voter.Proxy().Peek("dvm", class) != nil)
	}
	offer.Seal = attest.New(attest.Config{Key: key}).SealProposal("dvm", class, "", commit[:], voters)
	if b := vote(offer); !b.Kept || voter.Metrics().ReplicaStored.Load() != 1 {
		t.Errorf("a sealed offer: kept %v, replicas stored %d; want kept and 1", b.Kept, voter.Metrics().ReplicaStored.Load())
	}
}
