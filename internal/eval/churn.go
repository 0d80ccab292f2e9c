package eval

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// Cluster churn under load: the membership subsystem's acceptance
// scenario. A fleet serves a zipf workload while one node is killed
// mid-run and a fresh node joins afterwards. The comparison that
// matters is the replication factor: at R=1 a death turns every key the
// dead node owned into a cold start (origin fetch + pipeline run, paid
// at client-visible latency), while at R=2 the successor already holds
// a pushed warm copy and the kill-phase p99 stays within a small factor
// of steady state. The join leg checks the consistent-hash promise —
// only ~1/n of keys remap — and that the newcomer warms itself through
// the handoff pull rather than through a miss storm.

// ChurnConfig parameterizes one churn scenario.
type ChurnConfig struct {
	// Nodes is the starting fleet size (default 4).
	Nodes int
	// Clients drive the closed-loop zipf workload (default 16).
	Clients int
	// Classes is the distinct key count (default 48).
	Classes int
	// ClassKB sizes each class (default 8).
	ClassKB int
	// Phase is how long each measured phase (steady, kill, join) runs
	// (default 1200ms).
	Phase time.Duration
	// ZipfS is the workload skew (default 1.1).
	ZipfS float64
	// OriginDelay models the origin's service time — the cost a cold
	// start pays that a warm replica does not (default 40ms).
	OriginDelay time.Duration
	// Seed drives the deterministic client PRNGs.
	Seed uint64
}

func (c *ChurnConfig) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Nodes > 8 {
		c.Nodes = 8 // the client failover table is fixed-size
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Classes <= 0 {
		c.Classes = 48
	}
	if c.ClassKB <= 0 {
		c.ClassKB = 8
	}
	if c.Phase <= 0 {
		c.Phase = 1200 * time.Millisecond
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.OriginDelay <= 0 {
		c.OriginDelay = 40 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ChurnRow is one replication factor's measurements.
type ChurnRow struct {
	Replication int
	// SteadyP99 is the client p99 with the full fleet healthy.
	SteadyP99 time.Duration
	// KillP99 is the client p99 in the window right after a node is
	// killed, over all requests.
	KillP99 time.Duration
	// RemappedP99 is the kill-window p99 over only the keys the dead
	// node owned — the cold-start cost proper, undiluted by the ~3/4 of
	// traffic the kill never touched.
	RemappedP99 time.Duration
	// ColdRatio is RemappedP99 / SteadyP99 — the acceptance bound is
	// <= 3x at R=2 (warm replicas), unbounded at R=1 (origin refetch).
	ColdRatio float64
	// JoinP99 is the client p99 in the window after a fresh node joins.
	JoinP99 time.Duration
	// Failures counts client-visible request errors across the whole
	// run (must be zero: every phase degrades, never fails).
	Failures int64
	// OriginFetches counts origin round-trips across the run; each one
	// beyond Classes paid a duplicate fetch and pipeline run.
	OriginFetches int64
	// RemapFrac is the fraction of the keyspace (measured over a large
	// probe key set) whose primary changed when the new node joined;
	// consistent hashing bounds it near 1/n.
	RemapFrac float64
	// HandoffKeys is how many cache entries the joining node received
	// through the handoff pull (warm-up without a miss storm).
	HandoffKeys int64
	// EpochAgreed reports whether every live node converged on the same
	// membership epoch by the end of the run.
	EpochAgreed bool
	// MembersAlive and MembersDead mirror the membership gauges on the
	// reference node at the end of the run: the fleet should count the
	// killed node dead and everyone else (survivors + joiner) alive.
	MembersAlive int
	MembersDead  int
}

// ClusterChurn runs the kill/join scenario once per replication factor
// in rs (nil = [1, 2]) and renders the comparison table.
func ClusterChurn(cfg ChurnConfig, rs []int) ([]ChurnRow, string, error) {
	cfg.defaults()
	if len(rs) == 0 {
		rs = []int{1, 2}
	}
	var rows []ChurnRow
	for _, r := range rs {
		row, err := churnRun(cfg, r)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		ratio := fmt.Sprintf("%.1fx", r.ColdRatio)
		cells = append(cells, []string{
			fmt.Sprint(r.Replication),
			ms(r.SteadyP99), ms(r.KillP99), ms(r.RemappedP99), ratio, ms(r.JoinP99),
			fmt.Sprint(r.Failures),
			fmt.Sprint(r.OriginFetches),
			fmt.Sprintf("%.1f%%", r.RemapFrac*100),
			fmt.Sprint(r.HandoffKeys),
			fmt.Sprint(r.EpochAgreed),
		})
	}
	text := fmt.Sprintf("cluster churn: %d nodes, %d clients, %d classes (zipf s=%.1f), kill one node then join one, origin %s away\n",
		cfg.Nodes, cfg.Clients, cfg.Classes, cfg.ZipfS, cfg.OriginDelay) +
		table([]string{"R", "steady p99", "kill p99", "remapped p99", "cold ratio", "join p99", "failures", "origin fetches", "join remap", "handoff keys", "epoch agreed"}, cells)
	return rows, text, nil
}

// churnRun is one scenario pass at replication factor r.
func churnRun(cfg ChurnConfig, r int) (ChurnRow, error) {
	origin, err := Corpus(cfg.Classes, cfg.ClassKB*1024, 42)
	if err != nil {
		return ChurnRow{}, err
	}
	counting := &fetchCounter{inner: origin}
	delayed := proxy.DelayedOrigin{Origin: counting, Delay: func(string) { time.Sleep(cfg.OriginDelay) }}

	lc, err := cluster.StartLocal(delayed, cfg.Nodes, func(int) proxy.Config {
		return proxy.Config{
			Pipeline:     ServicePipeline(StandardPolicy(), false),
			CacheEnabled: true,
		}
	}, func(int) cluster.Config {
		return cluster.Config{
			Replication: r,
			// Fast-reacting failure detection so the kill phase shows the
			// post-remap regime, not just the detection window.
			GossipInterval: 100 * time.Millisecond,
			SuspectTimeout: 400 * time.Millisecond,
			PeerTimeout:    1 * time.Second,
			// Peer hops only, never local hot copies: steady state must
			// measure the sharing path so the kill phase is an apples
			// comparison against it.
			HotThreshold: -1,
		}
	})
	if err != nil {
		return ChurnRow{}, err
	}
	defer lc.Close()

	// Warm the fleet: every key requested once per node, so every owner
	// holds its shard (and, at R=2, has pushed its replicas).
	ctx := context.Background()
	for ni, n := range lc.Nodes {
		for k := 0; k < cfg.Classes; k++ {
			class := fmt.Sprintf("net/Applet%03d", k)
			if _, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("warm-%d", ni), Arch: "dvm", Class: class}); err != nil {
				return ChurnRow{}, fmt.Errorf("churn warmup: node %d %s: %v", ni, class, err)
			}
		}
	}
	// Let in-flight replica pushes land before measuring.
	time.Sleep(200 * time.Millisecond)

	const (
		phaseSteady = iota
		phaseKill
		phaseJoin
		phaseDone
	)
	var phase atomic.Int32
	hists := [3]*telemetry.Histogram{telemetry.NewHistogram(nil), telemetry.NewHistogram(nil), telemetry.NewHistogram(nil)}
	remappedHist := telemetry.NewHistogram(nil)
	var failures atomic.Int64
	var down [8]atomic.Bool // by node index; clients re-attach past dead nodes

	// The keys whose primary dies with the victim: the kill phase's
	// cold-start cost concentrates entirely in these, so they get their
	// own histogram (computed up front — the ring is static until the
	// kill, and every node agrees on it).
	victim := 1
	victimURL := lc.Nodes[victim].Self()
	remappedKey := make([]bool, cfg.Classes)
	for k := 0; k < cfg.Classes; k++ {
		key := cluster.KeyFor("dvm", fmt.Sprintf("net/Applet%03d", k))
		remappedKey[k] = lc.Nodes[0].Ring().Owner(key) == victimURL
	}
	zipf := newZipfTable(cfg.Classes, cfg.ZipfS)
	// Clients hold their own snapshot of the starting fleet: AddNode
	// appends to lc.Nodes mid-run, and a shared slice header read under
	// load would race with that append.
	fleet := append([]*cluster.Node(nil), lc.Nodes...)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := &lrand{state: cfg.Seed*1099511628211 + uint64(c)*2654435761}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ni := c % cfg.Nodes
				for down[ni].Load() {
					ni = (ni + 1) % cfg.Nodes // failover, as a multi-endpoint loader would
				}
				ki := zipf.draw(rng.float())
				class := fmt.Sprintf("net/Applet%03d", ki)
				p := phase.Load()
				t0 := telemetry.StartTimer()
				_, err := fleet[ni].Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", c), Arch: "dvm", Class: class})
				if p < phaseDone {
					hists[p].Observe(t0.Elapsed())
					if p == phaseKill && remappedKey[ki] {
						remappedHist.Observe(t0.Elapsed())
					}
				}
				if err != nil {
					failures.Add(1)
				}
			}
		}(c)
	}

	// Phase 1: steady state.
	time.Sleep(cfg.Phase)

	// Phase 2: kill. The server dies mid-traffic with no goodbye; the
	// fleet must detect, remap, and keep serving.
	phase.Store(phaseKill)
	down[victim].Store(true)
	lc.Stop(victim)
	time.Sleep(cfg.Phase)

	// Phase 3: join. Snapshot primaries before and after to measure the
	// remap fraction the newcomer causes. Measured over a large probe
	// key set, not the workload classes: the remap bound is a property
	// of the ring's keyspace split, and a few dozen workload keys would
	// bury it in sampling noise.
	const remapProbes = 2048
	ref := lc.Nodes[(victim+1)%cfg.Nodes]
	// The snapshot must isolate the join: wait until the victim is
	// declared dead (and its shard remapped) on the reference node, or
	// the kill's own remap would be charged to the joiner.
	for deadline := time.Now().Add(10 * time.Second); ; {
		dead := false
		for _, v := range ref.PeerViews() {
			if v.Member == victimURL && v.State == telemetry.MemberDead {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			return ChurnRow{}, fmt.Errorf("churn: victim never declared dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ownersBefore := make([]string, remapProbes)
	for k := 0; k < remapProbes; k++ {
		ownersBefore[k] = ref.Ring().Owner(fmt.Sprintf("probe-%04d", k))
	}
	joined, err := lc.AddNode(nil)
	if err != nil {
		close(stop)
		wg.Wait()
		return ChurnRow{}, err
	}
	phase.Store(phaseJoin)
	time.Sleep(cfg.Phase)
	phase.Store(phaseDone)
	close(stop)
	wg.Wait()

	remapped := 0
	for k := 0; k < remapProbes; k++ {
		if ref.Ring().Owner(fmt.Sprintf("probe-%04d", k)) != ownersBefore[k] {
			remapped++
		}
	}
	agreed := true
	epoch := ref.Epoch()
	for i, n := range lc.Nodes {
		if i == victim {
			continue
		}
		if n.Epoch() != epoch {
			agreed = false
		}
	}
	row := ChurnRow{
		Replication:   r,
		SteadyP99:     hists[phaseSteady].Snapshot().Quantile(0.99),
		KillP99:       hists[phaseKill].Snapshot().Quantile(0.99),
		RemappedP99:   remappedHist.Snapshot().Quantile(0.99),
		JoinP99:       hists[phaseJoin].Snapshot().Quantile(0.99),
		Failures:      failures.Load(),
		OriginFetches: counting.fetches.Load(),
		RemapFrac:     float64(remapped) / remapProbes,
		HandoffKeys:   nodeCounter(lc.Nodes[joined], "handoff_keys_total"),
		EpochAgreed:   agreed,
	}
	gauges := ref.Health().Gauges
	row.MembersAlive = int(gauges["membership_alive"])
	row.MembersDead = int(gauges["membership_dead"])
	if row.SteadyP99 > 0 {
		row.ColdRatio = float64(row.RemappedP99) / float64(row.SteadyP99)
	}
	return row, nil
}

// fetchCounter counts origin round-trips (the duplicate-work metric).
type fetchCounter struct {
	inner   proxy.Origin
	fetches atomic.Int64
}

func (f *fetchCounter) Fetch(ctx context.Context, name string) ([]byte, error) {
	f.fetches.Add(1)
	return f.inner.Fetch(ctx, name)
}
