package eval

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

// Attestation quorum ablation: what does cross-checking cost, and how
// fast does it catch a liar? For each quorum the bench runs the same
// zipf workload over a fresh fleet and measures client latency and
// goodput — the quorum tax lands on the miss path only (each variant
// round-trip is part of a key's one-time service cost), so the p50 of
// a cache-heavy workload should barely move while the cold-key tail
// pays for the extra hops. At quorum >= 2 a second fleet with one
// Byzantine member (deterministically corrupting pipeline) measures
// detection: how many cold keys, and how much wall time, until some
// honest node's suspicion ledger quarantines the liar — with the
// standing requirement that not one corrupted artifact is served on
// the way.

// AttestBenchConfig parameterizes the quorum ablation.
type AttestBenchConfig struct {
	// Nodes is the fleet size (default 4).
	Nodes int
	// Clients drive the closed-loop zipf workload (default 8).
	Clients int
	// Classes is the distinct key count (default 64).
	Classes int
	// ClassKB sizes each class (default 8).
	ClassKB int
	// Rounds is how many requests each client performs (default 300).
	Rounds int
	// ZipfS is the workload skew (default 1.1).
	ZipfS float64
	// Quorums are the ablation points (default 1, 2, 3).
	Quorums []int
	// Seed drives the deterministic client PRNGs.
	Seed uint64
}

func (c *AttestBenchConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Classes <= 0 {
		c.Classes = 64
	}
	if c.ClassKB <= 0 {
		c.ClassKB = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 300
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if len(c.Quorums) == 0 {
		c.Quorums = []int{1, 2, 3}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// AttestBenchRow is one quorum's measurements.
type AttestBenchRow struct {
	Quorum int
	// P50/P99 are client-visible request latencies over the whole zipf
	// run (hits and misses).
	P50, P99 time.Duration
	// QuorumP99 is the p99 of the owner-side attest round itself
	// (attest_quorum_seconds): the per-key tax, undiluted by cache hits.
	QuorumP99 time.Duration
	// GoodputRPS is completed requests per second of wall time.
	GoodputRPS float64
	// OriginFetches counts origin round-trips (must stay one per key:
	// variants receive origin bytes from the owner, they do not refetch).
	OriginFetches int64
	// AttestedKeys / Variants / Degraded sum the fleet's attestation
	// counters.
	AttestedKeys, Variants, Degraded int64
	// Byzantine leg (quorum >= 2; zero values at quorum 1):
	// DetectKeys is how many cold keys were served before some honest
	// node quarantined the Byzantine member (-1 = not detected),
	// DetectLatency the wall time to that point, and CorruptServed how
	// many corrupted artifacts honest nodes served meanwhile (must be 0).
	DetectKeys    int
	DetectLatency time.Duration
	CorruptServed int64
}

// attestFleet starts a fleet with attestation at the given quorum;
// byzantine >= 0 gives that node index the corrupting pipeline.
func attestFleet(origin proxy.Origin, cfg AttestBenchConfig, quorum, byzantine int, adversary *netsim.Byzantine) (*cluster.LocalCluster, error) {
	mkProxy := func(i int) proxy.Config {
		pcfg := proxy.Config{
			Pipeline:     ServicePipeline(StandardPolicy(), false),
			CacheEnabled: true,
		}
		if i == byzantine {
			p := ServicePipeline(StandardPolicy(), false)
			p.Append(adversary.Filter())
			pcfg.Pipeline = p
		}
		return pcfg
	}
	return cluster.StartLocal(origin, cfg.Nodes, mkProxy, func(int) cluster.Config {
		ccfg := cluster.Config{
			Replication:    2,
			GossipInterval: -1, // static fleet: no churn in this bench
		}
		if quorum >= 1 {
			ccfg.AttestKey = []byte("attest-bench-service-key")
			ccfg.AttestQuorum = quorum
		}
		return ccfg
	})
}

// AttestBench runs the quorum ablation and renders the table.
func AttestBench(cfg AttestBenchConfig) ([]AttestBenchRow, string, error) {
	cfg.defaults()
	var rows []AttestBenchRow
	for _, q := range cfg.Quorums {
		row, err := attestRun(cfg, q)
		if err != nil {
			return nil, "", err
		}
		if q >= 2 {
			if err := attestDetect(cfg, q, &row); err != nil {
				return nil, "", err
			}
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		detect, detectLat := "-", "-"
		if r.Quorum >= 2 {
			detect, detectLat = fmt.Sprint(r.DetectKeys), ms(r.DetectLatency)
			if r.DetectKeys < 0 {
				detect, detectLat = "none", "-"
			}
		}
		cells = append(cells, []string{
			fmt.Sprint(r.Quorum),
			ms(r.P50), ms(r.P99), ms(r.QuorumP99),
			fmt.Sprintf("%.0f", r.GoodputRPS),
			fmt.Sprint(r.OriginFetches),
			fmt.Sprint(r.AttestedKeys), fmt.Sprint(r.Variants), fmt.Sprint(r.Degraded),
			detect, detectLat, fmt.Sprint(r.CorruptServed),
		})
	}
	text := fmt.Sprintf("attestation quorum ablation: %d nodes, %d clients x %d requests, %d classes (zipf s=%.1f)\n",
		cfg.Nodes, cfg.Clients, cfg.Rounds, cfg.Classes, cfg.ZipfS) +
		table([]string{"quorum", "p50", "p99", "attest p99", "goodput rps", "origin fetches",
			"attested", "variant votes", "degraded", "detect keys", "detect time", "corrupt served"}, cells)
	return rows, text, nil
}

// attestRun measures one quorum's clean-fleet latency and goodput.
func attestRun(cfg AttestBenchConfig, quorum int) (AttestBenchRow, error) {
	origin, err := Corpus(cfg.Classes, cfg.ClassKB*1024, 42)
	if err != nil {
		return AttestBenchRow{}, err
	}
	counting := &fetchCounter{inner: origin}
	lc, err := attestFleet(counting, cfg, quorum, -1, nil)
	if err != nil {
		return AttestBenchRow{}, err
	}
	defer lc.Close()

	ctx := context.Background()
	hist := telemetry.NewHistogram(nil)
	zipf := newZipfTable(cfg.Classes, cfg.ZipfS)
	var failures atomic.Int64
	wallTimer := telemetry.StartTimer()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := &lrand{state: cfg.Seed*1099511628211 + uint64(c)*2654435761}
			n := lc.Nodes[c%cfg.Nodes]
			for i := 0; i < cfg.Rounds; i++ {
				class := fmt.Sprintf("net/Applet%03d", zipf.draw(rng.float()))
				t0 := telemetry.StartTimer()
				_, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", c), Arch: "dvm", Class: class})
				hist.Observe(t0.Elapsed())
				if err != nil {
					failures.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := wallTimer.Elapsed()
	if f := failures.Load(); f > 0 {
		return AttestBenchRow{}, fmt.Errorf("attest bench: %d request failures at quorum %d on a clean fleet", f, quorum)
	}
	row := AttestBenchRow{Quorum: quorum}
	snap := hist.Snapshot()
	row.P50, row.P99 = snap.Quantile(0.5), snap.Quantile(0.99)
	total := cfg.Clients * cfg.Rounds
	row.GoodputRPS = float64(total) / wall.Seconds()
	row.OriginFetches = counting.fetches.Load()
	for _, n := range lc.Nodes {
		c := n.Health().Counters
		row.AttestedKeys += c["attested_keys_total"]
		row.Variants += c["attest_variants_total"]
		row.Degraded += c["attest_degraded_total"]
		h := n.Proxy().Telemetry().Histogram("attest_quorum_seconds", nil)
		if p := h.Snapshot().Quantile(0.99); p > row.QuorumP99 {
			row.QuorumP99 = p
		}
	}
	return row, nil
}

// attestDetect measures the Byzantine leg: cold keys and wall time
// until quarantine, counting any corrupted artifact an honest node
// serves (the required count is zero).
func attestDetect(cfg AttestBenchConfig, quorum int, row *AttestBenchRow) error {
	origin, err := Corpus(cfg.Classes, cfg.ClassKB*1024, 43)
	if err != nil {
		return err
	}
	// The honest reference output per class, from an independent
	// pipeline: any served byte-divergence from it is a corrupt artifact.
	honest := make(map[string][]byte, cfg.Classes)
	ref := ServicePipeline(StandardPolicy(), false)
	for name, raw := range origin {
		out, err := ref.Process(raw, rewrite.NewContext())
		if err != nil {
			return err
		}
		honest[name] = out
	}
	byz := cfg.Nodes - 1
	var adversary netsim.Byzantine
	lc, err := attestFleet(origin, cfg, quorum, byz, &adversary)
	if err != nil {
		return err
	}
	defer lc.Close()
	byzURL := lc.Nodes[byz].Self()

	ctx := context.Background()
	row.DetectKeys = -1
	detectTimer := telemetry.StartTimer()
	for k := 0; k < cfg.Classes; k++ {
		class := fmt.Sprintf("net/Applet%03d", k)
		n := lc.Nodes[k%(cfg.Nodes-1)] // honest nodes only
		res, err := n.Request(ctx, proxy.Lookup{Client: "detect", Arch: "dvm", Class: class})
		if err != nil {
			continue // a failed flight serves nothing, corrupt or otherwise
		}
		if !bytes.Equal(res.Data, honest[class]) {
			row.CorruptServed++
		}
		quarantined := false
		for i, hn := range lc.Nodes {
			if i != byz && hn.Quarantined(byzURL) {
				quarantined = true
			}
		}
		if quarantined {
			row.DetectKeys = k + 1
			row.DetectLatency = detectTimer.Elapsed()
			break
		}
	}
	return nil
}
