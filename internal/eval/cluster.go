package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// Sharded-cluster scalability: the ROADMAP's fleet question. Round-robin
// replication (§2's literal remedy) gives N proxies N independent
// caches, so a fleet pays N cold origin fetches and N duplicate
// rewrite-pipeline runs per class. The consistent-hash cluster
// (internal/cluster) shards ownership instead: one origin fetch and one
// pipeline run per distinct key, cluster-wide, with peer fills for
// everyone else.

// ClusterScalingRow is one (mode, fleet size) point of the comparison.
type ClusterScalingRow struct {
	Mode          string // "round-robin", "cluster", or "cluster+prefetch"
	Nodes         int
	Clients       int
	OriginFetches int64
	// DupRewrites counts pipeline runs beyond the necessary one per
	// distinct key — pure duplicate work a sharded fleet avoids.
	DupRewrites int64
	// HitRate is the fleet-aggregate cache hit rate (cluster mode counts
	// the internal peer-protocol requests too).
	HitRate float64
	// Latency is the fleet-wide client-observed latency histogram (the
	// per-client histograms merged bucket-wise); the quantile columns are
	// computed from it.
	Latency       telemetry.HistSnapshot
	P50, P95, P99 time.Duration
	// ColdStart is the latency histogram over each client's FIRST request
	// for each key — the tail the prefetcher attacks. Later repeats of
	// the same (client, key) pair are warm and excluded.
	ColdStart telemetry.HistSnapshot
	ColdP99   time.Duration
	// Prefetch ledger, summed over the fleet: entries piggybacked onto
	// peer-fill responses, hits on prefetched entries, and bytes pushed
	// but evicted/overwritten before first use (waste — reported, never
	// hidden; each piggyback batch is bounded by the prefetch budget).
	PrefetchPushed int64
	PrefetchHits   int64
	PrefetchWaste  int64
	ThroughputBps  float64
}

// clusterZipfS is the key-popularity skew of the app-walk workload's
// window starts (same exponent family as the overload harness).
const clusterZipfS = 0.9

// clusterWalkLen is the length of one sequential class walk: a client
// picks a zipf-popular window start and then requests ~8 classes in
// order — the applet-session shape whose first-use order the monitor
// profiles, and therefore the sequence the prefetcher can predict.
const clusterWalkLen = 8

// ClusterScaling runs the same zipf-app-walk workload against three
// fleets of each size in nodeCounts — N round-robin replicas, an
// N-node sharded cluster, and the same cluster with predictive
// prefetch enabled (all with caching on, over the same synthetic-
// Internet origin) — and reports duplicate work, client-observed
// latency, cold-start latency (first touch per client and key), and
// the prefetch hit/waste ledger. The cluster's peer hops run over real
// loopback HTTP.
func ClusterScaling(clients int, nodeCounts []int, cfg Fig10Config) ([]ClusterScalingRow, string, error) {
	origin, err := Corpus(cfg.Applets, cfg.AppletKB*1024, 42)
	if err != nil {
		return nil, "", err
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	delayed := syntheticInternet(origin, cfg)
	mkProxy := func(int) proxy.Config {
		return proxy.Config{
			Pipeline:     ServicePipeline(StandardPolicy(), false),
			CacheEnabled: true,
		}
	}

	var rows []ClusterScalingRow
	var breakdown string

	// runCluster drives one sharded fleet, optionally with the prefetch
	// predictor enabled and pre-trained from the app-walk first-use order
	// (the monitor profile a previous session would have produced).
	runCluster := func(n int, mode string, withPrefetch bool) (ClusterScalingRow, error) {
		mkClust := func(int) cluster.Config {
			if withPrefetch {
				return cluster.Config{}
			}
			return cluster.Config{PrefetchK: -1}
		}
		lc, err := cluster.StartLocal(delayed, n, mkProxy, mkClust)
		if err != nil {
			return ClusterScalingRow{}, err
		}
		defer lc.Close()
		if withPrefetch {
			cycle := make([]string, 0, cfg.Applets+1)
			for i := 0; i <= cfg.Applets; i++ {
				cycle = append(cycle, fmt.Sprintf("net/Applet%03d", i%cfg.Applets))
			}
			for _, node := range lc.Nodes {
				node.FeedProfile("dvm", cycle)
			}
		}
		// One traced cold request from a non-owner first: its trace shows
		// the per-stage breakdown (peer.fill on the non-owner, the owner's
		// origin.fetch and pipeline) that the aggregate table cannot.
		if s := traceSample(lc, cfg.Applets); s != "" && breakdown == "" {
			breakdown = s
		}
		entries := make([]requestFunc, n)
		for i, node := range lc.Nodes {
			entries[i] = (&pagedHost{budget: cfg.MemoryBudget}).wrap(node.Request)
		}
		row, err := driveFleet(mode, n, clients, cfg, func(c int) requestFunc {
			return entries[c%n]
		})
		if err != nil {
			return ClusterScalingRow{}, err
		}
		var total proxy.Stats
		for _, node := range lc.Nodes {
			s := node.Proxy().Stats()
			total.Requests += s.Requests
			total.CacheHits += s.CacheHits
			total.OriginFetches += s.OriginFetches
		}
		row = finishRow(row, total, cfg.Applets)
		for _, node := range lc.Nodes {
			pf := node.Proxy().PrefetchStats()
			row.PrefetchPushed += node.PrefetchPushed()
			row.PrefetchHits += pf.Hits
			row.PrefetchWaste += pf.WasteBytes
		}
		return row, nil
	}

	for _, n := range nodeCounts {
		// Round-robin baseline: N independent caches.
		group, err := proxy.NewReplicaGroup(delayed, n, mkProxy)
		if err != nil {
			return nil, "", err
		}
		request := pagedReplicas(group, cfg.MemoryBudget)
		row, err := driveFleet("round-robin", n, clients, cfg, func(int) requestFunc {
			return request
		})
		if err != nil {
			return nil, "", err
		}
		row = finishRow(row, group.Stats(), cfg.Applets)
		rows = append(rows, row)

		// Sharded cluster: one logical cache over N nodes, predictor off.
		row, err = runCluster(n, "cluster", false)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)

		// Same fleet with the prefetcher on: peer fills piggyback
		// predicted successors, so a client's first touch of a class is
		// more often a local hit — the cold-start column is the one to
		// compare against the plain cluster row.
		row, err = runCluster(n, "cluster+prefetch", true)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}

	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mode,
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.OriginFetches),
			fmt.Sprint(r.DupRewrites),
			fmt.Sprintf("%.1f%%", r.HitRate*100),
			ms(r.P50),
			ms(r.P95),
			ms(r.P99),
			ms(r.ColdP99),
			fmt.Sprint(r.PrefetchHits),
			fmt.Sprint(r.PrefetchWaste),
		})
	}
	text := fmt.Sprintf("sharded cluster vs round-robin replicas at %d clients, %d distinct classes, zipf(s=%.1f) app walks\n", clients, cfg.Applets, clusterZipfS) +
		table([]string{"Mode", "Nodes", "Origin fetches", "Dup rewrites", "Hit rate", "p50 (ms)", "p95 (ms)", "p99 (ms)", "Cold p99 (ms)", "Pf hits", "Pf waste (B)"}, cells)
	if breakdown != "" {
		text += "\n" + breakdown
	}
	return rows, text, nil
}

type requestFunc func(ctx context.Context, l proxy.Lookup) (proxy.Result, error)

// traceSample issues one traced request from node 0 for a class another
// node owns and renders the resulting cross-hop span timeline.
func traceSample(lc *cluster.LocalCluster, applets int) string {
	n0 := lc.Nodes[0]
	for i := 0; i < applets; i++ {
		class := fmt.Sprintf("net/Applet%03d", i)
		if n0.Ring().Owner(cluster.KeyFor("dvm", class)) == n0.Self() {
			continue
		}
		// Tracing is opt-in: this probe is the one request that asks.
		tr := telemetry.NewTrace()
		if _, err := n0.Request(telemetry.WithTrace(context.Background(), tr), proxy.Lookup{Client: "trace-probe", Arch: "dvm", Class: class}); err != nil {
			return ""
		}
		var b strings.Builder
		fmt.Fprintf(&b, "trace %s — cold peer-filled request for %s, per-stage:\n", tr.ID(), class)
		for _, s := range tr.Spans() {
			fmt.Fprintf(&b, "  %-14s %-24s start=%-9s dur=%s ms\n", s.Stage, s.Node, ms(s.Start)+" ms", ms(s.Dur))
		}
		return b.String()
	}
	return ""
}

// driveFleet runs the zipf-app-walk workload for cfg.Duration and
// collects client-observed latencies in shared telemetry histograms —
// the same mergeable form the daemons export on /metrics. Each client
// repeatedly draws a zipf-popular window start and walks clusterWalkLen
// classes from it in sequence; the first time a client touches a key
// its latency also lands in the cold-start histogram.
func driveFleet(mode string, nodes, clients int, cfg Fig10Config, entry func(c int) requestFunc) (ClusterScalingRow, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	hist := telemetry.NewHistogram(nil)
	cold := telemetry.NewHistogram(nil)
	zipf := newZipfTable(cfg.Applets, clusterZipfS)
	walk := clusterWalkLen
	if walk > cfg.Applets {
		walk = cfg.Applets
	}
	var totalBytes int64
	var firstErr error
	start := telemetry.StartTimer()
	deadline := time.Now().Add(cfg.Duration)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := entry(c)
			rng := &lrand{state: uint64(c)*0x9E3779B97F4A7C15 + 12345}
			seen := make(map[int]bool, cfg.Applets)
			for time.Now().Before(deadline) {
				// The first walk starts at the client's own offset so the
				// fleet collectively covers every key even when the zipf
				// head would otherwise starve the tail in a short run.
				w := (c * walk) % cfg.Applets
				if len(seen) > 0 {
					w = zipf.draw(rng.float())
				}
				for s := 0; s < walk && time.Now().Before(deadline); s++ {
					idx := (w + s) % cfg.Applets
					applet := fmt.Sprintf("net/Applet%03d", idx)
					t0 := telemetry.StartTimer()
					res, err := req(context.Background(), proxy.Lookup{
						Client: fmt.Sprintf("client-%d", c), Arch: "dvm", Class: applet,
					})
					lat := t0.Elapsed()
					hist.Observe(lat)
					if !seen[idx] {
						seen[idx] = true
						cold.Observe(lat)
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					totalBytes += int64(len(res.Data))
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return ClusterScalingRow{}, firstErr
	}
	elapsed := start.Elapsed()
	lat := hist.Snapshot()
	coldSnap := cold.Snapshot()
	row := ClusterScalingRow{
		Mode:          mode,
		Nodes:         nodes,
		Clients:       clients,
		Latency:       lat,
		P50:           lat.Quantile(0.50),
		P95:           lat.Quantile(0.95),
		P99:           lat.Quantile(0.99),
		ColdStart:     coldSnap,
		ColdP99:       coldSnap.Quantile(0.99),
		ThroughputBps: float64(totalBytes) / elapsed.Seconds(),
	}
	return row, nil
}

// finishRow fills the duplicate-work counters from fleet-aggregate
// stats: every origin fetch beyond one per distinct key paid for a
// redundant fetch and a redundant pipeline run.
func finishRow(row ClusterScalingRow, s proxy.Stats, distinct int) ClusterScalingRow {
	row.OriginFetches = s.OriginFetches
	if d := s.OriginFetches - int64(distinct); d > 0 {
		row.DupRewrites = d
	}
	if s.Requests > 0 {
		row.HitRate = float64(s.CacheHits) / float64(s.Requests)
	}
	return row
}
