package eval

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// AblationReplicationRow is one point of the replication experiment.
type AblationReplicationRow struct {
	Replicas      int
	Clients       int
	ThroughputBps float64
	LatencyPerKB  time.Duration
	// OriginFetches/DupRewrites/HitRate expose the duplicate work a
	// round-robin fleet does: with caching off (the paper's worst case)
	// every request is a fresh origin fetch plus a fresh pipeline run.
	OriginFetches int64
	DupRewrites   int64
	HitRate       float64
}

// AblationReplication demonstrates §2's answer to the Figure 10
// collapse: "in larger installations, an administrator can ... use
// replicated proxies." It drives a client population big enough to
// exhaust one proxy's memory budget and shows throughput restored as
// replicas are added (each replica brings its own 64 MB). The rendered
// output then appends the ClusterScaling comparison — the same fleet
// sizes run with caching on, round-robin replicas vs. the sharded
// cluster — so the duplicate-work numbers sit next to the throughput
// restoration they motivate.
func AblationReplication(clients int, replicaCounts []int, cfg Fig10Config) ([]AblationReplicationRow, string, error) {
	origin, err := Corpus(cfg.Applets, cfg.AppletKB*1024, 42)
	if err != nil {
		return nil, "", err
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	upstream := syntheticInternet(origin, cfg)
	rows := make([]AblationReplicationRow, 0, len(replicaCounts))
	for _, nr := range replicaCounts {
		group, err := proxy.NewReplicaGroup(upstream, nr, func(int) proxy.Config {
			return proxy.Config{
				Pipeline:     ServicePipeline(StandardPolicy(), false),
				CacheEnabled: false,
			}
		})
		if err != nil {
			return nil, "", err
		}
		request := pagedReplicas(group, cfg.MemoryBudget)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var totalBytes int64
		var totalLatency time.Duration
		var fetches int64
		var firstErr error
		start := telemetry.StartTimer()
		deadline := time.Now().Add(cfg.Duration)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for f := 0; time.Now().Before(deadline); f++ {
					applet := fmt.Sprintf("net/Applet%03d", (c+f)%cfg.Applets)
					t0 := telemetry.StartTimer()
					res, err := request(context.Background(), proxy.Lookup{
						Client: fmt.Sprintf("client-%d", c), Arch: "dvm", Class: applet,
					})
					d := t0.Elapsed()
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					totalBytes += int64(len(res.Data))
					totalLatency += d
					fetches++
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, "", firstErr
		}
		elapsed := start.Elapsed()
		row := AblationReplicationRow{
			Replicas:      nr,
			Clients:       clients,
			ThroughputBps: float64(totalBytes) / elapsed.Seconds(),
		}
		if fetches > 0 && totalBytes > 0 {
			avgLatency := float64(totalLatency) / float64(fetches)
			avgKB := float64(totalBytes) / float64(fetches) / 1024
			row.LatencyPerKB = time.Duration(avgLatency / avgKB)
		}
		gs := group.Stats()
		row.OriginFetches = gs.OriginFetches
		if d := gs.OriginFetches - int64(cfg.Applets); d > 0 {
			row.DupRewrites = d
		}
		if gs.Requests > 0 {
			row.HitRate = float64(gs.CacheHits) / float64(gs.Requests)
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.Replicas),
			fmt.Sprintf("%.0f", r.ThroughputBps/1024),
			ms(r.LatencyPerKB),
			fmt.Sprint(r.OriginFetches),
			fmt.Sprint(r.DupRewrites),
			fmt.Sprintf("%.1f%%", r.HitRate*100),
		})
	}
	text := fmt.Sprintf("replication at %d clients (one proxy's memory saturates)\n", clients) +
		table([]string{"Replicas", "Throughput (KB/s)", "Latency/KB (ms)", "Origin fetches", "Dup rewrites", "Hit rate"}, cells)

	// The same fleet sizes as one sharded cache: round-robin vs. the
	// consistent-hash cluster, caching on.
	if _, ctext, err := ClusterScaling(clients, replicaCounts, cfg); err == nil {
		text += "\n" + ctext
	} else {
		return nil, "", err
	}
	return rows, text, nil
}
