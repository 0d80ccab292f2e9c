package eval

// Predictive-prefetch microbench: the 2-node warm-vs-cold walkthrough
// from the README, instrumented. Both fleets are warmed the same way
// (every class resident on its ring owner, predictors fed the app-walk
// first-use profile); then a fresh client walks every class in first-use
// order through node 0. Without prefetch every class the other node owns
// costs a peer round trip; with prefetch the owner piggybacks each
// class's predicted successor onto the fill, so the next step of the
// walk is already local. The bench reports the walk latency both ways,
// the full prefetch ledger (pushed / received / inserted / hits / waste
// / resident — waste is reported, never hidden), and an unattested-push
// probe proving the ingestion gate holds for prefetch entries too.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// PrefetchBenchResult is the outcome of one warm-vs-cold comparison.
type PrefetchBenchResult struct {
	Classes int
	// RemoteClasses is how many of the walk's classes the *other* node
	// owns in the prefetching fleet — the number of peer round trips the
	// walk would need with no prefetcher. Every one of them ends as
	// either a peer hop or a prefetch hit: PeerHops + Hits ==
	// RemoteClasses.
	RemoteClasses int64

	// Walk latency through the prefetching fleet vs the same walk
	// through a prefetch-disabled one.
	WalkP50, WalkP99                 time.Duration
	BaselineWalkP50, BaselineWalkP99 time.Duration
	PeerHops, BaselinePeerHops       int64

	// The prefetch ledger, summed over the fleet.
	Pushed, Received, Inserted, Hits int64
	WasteBytes, ResidentBytes        int64

	// UnattestedRejected reports whether a forged prefetch push without
	// an attestation was refused per-entry and kept out of the cache.
	UnattestedRejected bool
}

// PrefetchBench runs the two-node warm-vs-cold walk. classKB sizes each
// class; a piggyback batch is capped by the cluster's prefetch budget.
// Attestation is on, so every piggybacked entry carries a
// seal the requester re-verifies.
func PrefetchBench(classes, classKB int) (PrefetchBenchResult, string, error) {
	if classes < 2 {
		return PrefetchBenchResult{}, "", fmt.Errorf("eval: prefetch bench needs >= 2 classes")
	}
	origin, err := Corpus(classes, classKB*1024, 7)
	if err != nil {
		return PrefetchBenchResult{}, "", err
	}
	key := []byte("prefetch-bench-attest-key")
	// The fed profile is the walk order WITHOUT a wrap-around edge: the
	// visitor walks the order exactly once, so an edge from the last
	// class back to the first would piggyback a class the visitor has
	// already passed — a correctly-reported resident-unused entry, but
	// noise in a smoke test that asserts the ledger balances to zero.
	order := make([]string, 0, classes)
	for i := 0; i < classes; i++ {
		order = append(order, fmt.Sprintf("net/Applet%03d", i))
	}

	// run warms a fleet, feeds the profile, and walks every class in
	// first-use order through node 0 with a fresh client. The caller
	// reads counters off lc and closes it.
	run := func(enabled bool) ([]time.Duration, *cluster.LocalCluster, error) {
		k := 0
		if !enabled {
			k = -1
		}
		lc, err := cluster.StartLocal(origin, 2, nil, func(int) cluster.Config {
			return cluster.Config{
				Replication:    1,
				GossipInterval: -1,
				AttestKey:      key,
				PrefetchK:      k,
			}
		})
		if err != nil {
			return nil, nil, err
		}
		ctx := context.Background()
		for i := 0; i < classes; i++ {
			class := fmt.Sprintf("net/Applet%03d", i)
			owner := lc.Nodes[0].Ring().Owner(cluster.KeyFor("dvm", class))
			for _, n := range lc.Nodes {
				if n.Self() != owner {
					continue
				}
				if _, err := n.Request(ctx, proxy.Lookup{Client: "warm", Arch: "dvm", Class: class}); err != nil {
					lc.Close()
					return nil, nil, err
				}
			}
		}
		for _, n := range lc.Nodes {
			n.FeedProfile("dvm", order)
		}
		lats := make([]time.Duration, 0, classes)
		for i := 0; i < classes; i++ {
			class := fmt.Sprintf("net/Applet%03d", i)
			t0 := telemetry.StartTimer()
			if _, err := lc.Nodes[0].Request(ctx, proxy.Lookup{Client: "visitor", Arch: "dvm", Class: class}); err != nil {
				lc.Close()
				return nil, nil, err
			}
			lats = append(lats, t0.Elapsed())
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats, lc, nil
	}

	res := PrefetchBenchResult{Classes: classes}

	base, lcBase, err := run(false)
	if err != nil {
		return res, "", err
	}
	res.BaselineWalkP50 = quantileDur(base, 0.50)
	res.BaselineWalkP99 = quantileDur(base, 0.99)
	res.BaselinePeerHops = lcBase.Nodes[0].Proxy().Stats().PeerFetches
	lcBase.Close()

	walk, lc, err := run(true)
	if err != nil {
		return res, "", err
	}
	defer lc.Close()
	res.WalkP50 = quantileDur(walk, 0.50)
	res.WalkP99 = quantileDur(walk, 0.99)
	res.PeerHops = lc.Nodes[0].Proxy().Stats().PeerFetches
	for i := 0; i < classes; i++ {
		class := fmt.Sprintf("net/Applet%03d", i)
		if lc.Nodes[0].Ring().Owner(cluster.KeyFor("dvm", class)) != lc.Nodes[0].Self() {
			res.RemoteClasses++
		}
	}
	for _, n := range lc.Nodes {
		res.Pushed += nodeCounter(n, "prefetch_pushed_total")
		res.Received += nodeCounter(n, "prefetch_received_total")
		pf := n.Proxy().PrefetchStats()
		res.Inserted += pf.Inserted
		res.Hits += pf.Hits
		res.WasteBytes += pf.WasteBytes
		res.ResidentBytes += pf.ResidentBytes
	}

	// Forged push: a prefetch-reason entry with no attestation must be
	// refused per-entry by the batch ingestion gate and never cached.
	res.UnattestedRejected, err = probeUnattested(lc.Nodes[0].Self(), lc.Nodes[0].Proxy())
	if err != nil {
		return res, "", err
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "2-node warm-vs-cold walk, %d classes x %dKB\n", classes, classKB)
	b.WriteString(table(
		[]string{"Mode", "Walk p50 (ms)", "Walk p99 (ms)", "Peer hops"},
		[][]string{
			{"no prefetch", ms(res.BaselineWalkP50), ms(res.BaselineWalkP99), fmt.Sprint(res.BaselinePeerHops)},
			{"prefetch", ms(res.WalkP50), ms(res.WalkP99), fmt.Sprint(res.PeerHops)},
		}))
	fmt.Fprintf(&b, "prefetch ledger: pushed=%d received=%d inserted=%d hits=%d waste=%dB resident-unused=%dB (remote classes: %d)\n",
		res.Pushed, res.Received, res.Inserted, res.Hits, res.WasteBytes, res.ResidentBytes, res.RemoteClasses)
	fmt.Fprintf(&b, "unattested prefetch push rejected: %v\n", res.UnattestedRejected)
	return res, b.String(), nil
}

// probeUnattested pushes one naked prefetch entry at the node's batch
// endpoint and reports whether it was refused and kept out of the cache.
func probeUnattested(nodeURL string, p *proxy.Proxy) (bool, error) {
	breq := cluster.BatchRequest{Entries: []cluster.BatchEntry{{
		Arch: "dvm", Class: "net/Forged", Reason: proxy.ReasonPrefetch,
		Data: []byte("unattested-bytes"),
	}}}
	body, err := breq.MarshalBinary()
	if err != nil {
		return false, err
	}
	resp, err := http.Post(nodeURL+cluster.BatchPath, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	var br cluster.BatchResponse
	if err := br.UnmarshalBinary(answer); err != nil {
		return false, err
	}
	return len(br.Errors) == 1 && p.Peek("dvm", "net/Forged") == nil, nil
}
