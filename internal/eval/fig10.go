package eval

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// Figure 10 + §4.1.2: proxy scaling and applet fetch overhead.

// Corpus builds n distinct single-class "applets" of roughly bytesPer
// bytes each, keyed applet000.., for the proxy load experiments.
func Corpus(n, bytesPer int, seed uint64) (proxy.MapOrigin, error) {
	out := make(proxy.MapOrigin, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("net/Applet%03d", i)
		b := classgen.NewClass(name, "java/lang/Object")
		b.DefaultInit()
		m := b.Method(classfile.AccPublic|classfile.AccStatic, "init", "()I")
		m.IConst(int32(i)).IReturn()
		pad := b.Method(classfile.AccPublic|classfile.AccStatic, "resources", "()V")
		written := 0
		for j := 0; written < bytesPer-600; j++ {
			s := fmt.Sprintf("applet-%03d resource chunk %04d ", i, j)
			for len(s) < 120 {
				s += "x"
			}
			pad.LdcString(s)
			pad.Pop()
			written += len(s) + 5
		}
		pad.Return()
		data, err := b.BuildBytes()
		if err != nil {
			return nil, err
		}
		out[name] = data
	}
	return out, nil
}

// Fig10Row is one point of the throughput-vs-clients curve.
type Fig10Row struct {
	Clients          int
	TotalBytes       int64
	Elapsed          time.Duration
	ThroughputBps    float64
	LatencyPerKB     time.Duration // average client-observed latency per KB
	FetchesPerClient int
	// OriginFetches and Coalesced report duplicate-work elimination:
	// coalesced requests joined an in-flight fetch instead of doing
	// their own origin fetch + pipeline run.
	OriginFetches int64
	Coalesced     int64
	// Latency is the proxy's request-latency histogram for this point;
	// P50/P95/P99 are its bucket quantiles.
	Latency       telemetry.HistSnapshot
	P50, P95, P99 time.Duration
}

// Fig10Config parameterizes the scaling experiment.
type Fig10Config struct {
	// Corpus size and applet size.
	Applets  int
	AppletKB int
	// Duration is the sustained-load measurement window per client count.
	Duration time.Duration
	// MemoryBudget models the proxy host's RAM (the paper's server had
	// 64 MB); 0 disables the model.
	MemoryBudget int64
	// InternetScale scales the synthetic Internet latency into real
	// sleeps (e.g. 0.001 turns 2.2 s into 2.2 ms). 0 disables upstream
	// delay.
	InternetScale float64
}

// DefaultFig10Config mirrors the paper's setup at a compressed
// timescale: the synthetic Internet is scaled to ~550 ms per fetch so
// client concurrency (not proxy CPU) is the offered load, and the proxy
// models the paper's 64 MB server, whose exhaustion past ~250
// simultaneous connections produces the Figure 10 degradation.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Applets:       64,
		AppletKB:      32,
		Duration:      3 * time.Second,
		MemoryBudget:  64 << 20,
		InternetScale: 0.25,
	}
}

// syntheticInternet puts origin behind the synthetic Internet, scaled
// into real sleeps, and the Figure 10 host-memory model (memory.go).
func syntheticInternet(origin proxy.Origin, cfg Fig10Config) proxy.Origin {
	inet := netsim.NewInternet(7)
	return pagedOrigin{proxy.DelayedOrigin{
		Origin: origin,
		Delay: func(string) {
			if cfg.InternetScale > 0 {
				lat := inet.FetchLatency()
				// Browsers and proxies of the era timed out slow
				// fetches; cap the log-normal tail accordingly so the
				// measurement window stays meaningful.
				if lat > 8*time.Second {
					lat = 8 * time.Second
				}
				time.Sleep(time.Duration(float64(lat) * cfg.InternetScale))
			}
		},
	}}
}

// Fig10 drives N simultaneous clients continuously fetching different
// applets through one proxy with caching disabled (the paper's worst
// case) for a fixed window, and reports sustained throughput.
func Fig10(clientCounts []int, cfg Fig10Config) ([]Fig10Row, string, error) {
	origin, err := Corpus(cfg.Applets, cfg.AppletKB*1024, 42)
	if err != nil {
		return nil, "", err
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	upstream := syntheticInternet(origin, cfg)
	rows := make([]Fig10Row, 0, len(clientCounts))
	for _, n := range clientCounts {
		p := proxy.New(upstream, proxy.Config{
			Pipeline:     ServicePipeline(StandardPolicy(), false),
			CacheEnabled: false, // worst case, per the paper
		})
		request := (&pagedHost{budget: cfg.MemoryBudget}).wrap(p.Request)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		var totalBytes int64
		var fetches int64
		start := telemetry.StartTimer()
		deadline := time.Now().Add(cfg.Duration)
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for f := 0; time.Now().Before(deadline); f++ {
					applet := fmt.Sprintf("net/Applet%03d", (c+f)%cfg.Applets)
					res, err := request(context.Background(), proxy.Lookup{
						Client: fmt.Sprintf("client-%d", c), Arch: "dvm", Class: applet,
					})
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					totalBytes += int64(len(res.Data))
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
		st := p.Stats()
		// Client-observed latency comes from the proxy's own request
		// histogram: the same numbers /metrics exports.
		lat := p.RequestLatency()
		row := Fig10Row{
			Clients:          n,
			TotalBytes:       totalBytes,
			Elapsed:          elapsed,
			ThroughputBps:    float64(totalBytes) / elapsed.Seconds(),
			FetchesPerClient: int(fetches / int64(n)),
			OriginFetches:    st.OriginFetches,
			Coalesced:        st.Coalesced,
			Latency:          lat,
			P50:              lat.Quantile(0.50),
			P95:              lat.Quantile(0.95),
			P99:              lat.Quantile(0.99),
		}
		if totalBytes > 0 && fetches > 0 {
			avgLatency := float64(lat.Sum) / float64(fetches)
			avgKB := float64(totalBytes) / float64(fetches) / 1024
			row.LatencyPerKB = time.Duration(avgLatency / avgKB)
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.Clients),
			fmt.Sprintf("%.0f", r.ThroughputBps/1024),
			ms(r.LatencyPerKB),
			ms(r.P50),
			ms(r.P95),
			ms(r.P99),
			fmt.Sprint(r.Coalesced),
			secs(r.Elapsed),
		})
	}
	return rows, table([]string{"Clients", "Throughput (KB/s)", "Latency/KB (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "Coalesced", "Elapsed (s)"}, cells), nil
}

// AppletFetchRow reports the §4.1.2 applet-download measurements.
type AppletFetchRow struct {
	Samples          int
	AvgInternet      time.Duration // modeled WAN latency (calibrated)
	AvgProxyOverhead time.Duration // measured parse+instrument time
	OverheadPercent  float64
	AvgCachedFetch   time.Duration // modeled LAN + measured cache hit
}

// AppletFetch reproduces the applet-download overhead measurement: the
// average Internet fetch latency, the proxy's added processing time, and
// the cached-fetch latency.
func AppletFetch(samples int) (AppletFetchRow, string, error) {
	if samples <= 0 {
		samples = 100
	}
	origin, err := Corpus(samples, 48*1024, 99)
	if err != nil {
		return AppletFetchRow{}, "", err
	}
	inet := netsim.NewInternet(11)
	lan := netsim.Ethernet10M

	p := proxy.New(origin, proxy.Config{
		Pipeline:     ServicePipeline(StandardPolicy(), false),
		CacheEnabled: true,
	})
	var sumInternet, sumProxy, sumCached time.Duration
	var mu sync.Mutex
	p2 := proxy.New(origin, proxy.Config{ // uncached pass for overhead measurement
		Pipeline: ServicePipeline(StandardPolicy(), false),
		OnAudit: func(r proxy.RequestRecord) {
			mu.Lock()
			sumProxy += r.ProxyTime
			mu.Unlock()
		},
	})
	for i := 0; i < samples; i++ {
		name := fmt.Sprintf("net/Applet%03d", i)
		sumInternet += inet.FetchLatency()
		if _, err := p2.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: name}); err != nil {
			return AppletFetchRow{}, "", err
		}
		// Warm the shared-cache proxy, then time a cached fetch: LAN
		// transfer plus the (real) cache lookup.
		if _, err := p.Request(context.Background(), proxy.Lookup{Client: "warm", Arch: "dvm", Class: name}); err != nil {
			return AppletFetchRow{}, "", err
		}
		t0 := telemetry.StartTimer()
		res, err := p.Request(context.Background(), proxy.Lookup{Client: "c2", Arch: "dvm", Class: name})
		if err != nil {
			return AppletFetchRow{}, "", err
		}
		sumCached += t0.Elapsed() + lan.TransferTime(len(res.Data))
	}
	row := AppletFetchRow{
		Samples:          samples,
		AvgInternet:      sumInternet / time.Duration(samples),
		AvgProxyOverhead: sumProxy / time.Duration(samples),
		AvgCachedFetch:   sumCached / time.Duration(samples),
	}
	row.OverheadPercent = float64(row.AvgProxyOverhead) / float64(row.AvgInternet) * 100
	text := fmt.Sprintf(
		"applet fetch (n=%d):\n  avg Internet latency:   %s ms (modeled, calibrated to paper's 2198±3752)\n  avg proxy processing:   %s ms (measured)  = %.1f%% overhead\n  avg cached fetch:       %s ms (cache + LAN transfer)\n",
		row.Samples, ms(row.AvgInternet), ms(row.AvgProxyOverhead), row.OverheadPercent, ms(row.AvgCachedFetch))
	return row, text, nil
}
