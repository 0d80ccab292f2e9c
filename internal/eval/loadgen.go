package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// Open-loop overload experiment: the companion table to Figure 10.
// Figure 10 drives N closed-loop clients (each waits for its previous
// fetch), which self-throttles under overload and hides collapse. The
// overload table instead offers arrivals at a fixed rate regardless of
// completions — the regime where an unprotected proxy's queue grows
// without bound — and measures what admission control preserves:
// accepted-request latency, shed rate, and goodput at multiples of the
// proxy's measured saturation point.

// OverloadConfig parameterizes the open-loop load experiment.
type OverloadConfig struct {
	// Clients is the simulated client population (distinct identities;
	// 1e5..1e6 are in-process cheap since a client is an identity, not a
	// goroutine). Arrivals draw a client uniformly.
	Clients int
	// Applets and AppletKB size the corpus. Caching is disabled so every
	// admitted request costs an origin fetch + pipeline run, matching
	// the Figure 10 worst case.
	Applets  int
	AppletKB int
	// OriginConns and OriginDelay model the upstream as a server with a
	// bounded connection pool and a fixed per-fetch service time, so the
	// proxy's capacity is a knowable constant (OriginConns/OriginDelay)
	// rather than a function of the harness host's scheduler. This is
	// where the unprotected proxy's queue grows without bound.
	OriginConns int
	OriginDelay time.Duration
	// ZipfS is the key-popularity skew exponent (higher = hotter head;
	// any s > 0 works, the CDF is computed exactly over Applets keys).
	ZipfS float64
	// Duration is the measurement window per load point.
	Duration time.Duration
	// Multiples are the offered-load points as multiples of the measured
	// saturation throughput.
	Multiples []float64
	// RequestTimeout is each client's patience; an open-loop client that
	// misses it abandons the request (the browser's dead spinner).
	RequestTimeout time.Duration
	// SlowFraction of arrivals are modem clients: they consume the
	// response over a netsim.Modem28k8 transfer (scaled by SlowScale)
	// and get a correspondingly extended deadline.
	SlowFraction float64
	SlowScale    float64
	// Bursts: every BurstEvery, arrivals run at BurstFactor x rate for
	// BurstLen (flash-crowd spikes on top of the Poisson process).
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
	// MaxOutstanding caps in-flight requests client-side (the OS's
	// socket backlog); arrivals beyond it count as dropped.
	MaxOutstanding int
	Seed           uint64

	// Proxy under test. MaxQueue 0 is the unprotected baseline.
	MaxQueue      int
	MaxConcurrent int
	QueueDeadline time.Duration
}

// DefaultOverloadConfig is sized so the full multiple sweep finishes in
// a few seconds on one core while still saturating the pipeline.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		Clients: 100_000,
		// Enough distinct keys that flight coalescing cannot absorb the
		// overload on its own: with all keys in flight the wait for
		// "your" flight exceeds any client's patience.
		Applets: 1024,
		// Small applets keep the pipeline's CPU share per request well
		// under the modeled origin service time, so the origin pool
		// (OriginConns/OriginDelay = 1600 req/s) is the capacity limit
		// on any host, including single-core CI.
		AppletKB:       4,
		OriginConns:    8,
		OriginDelay:    5 * time.Millisecond,
		ZipfS:          0.9,
		Duration:       time.Second,
		Multiples:      []float64{0.5, 1, 2, 4},
		RequestTimeout: 250 * time.Millisecond,
		SlowFraction:   0.05,
		SlowScale:      0.005,
		BurstEvery:     400 * time.Millisecond,
		BurstLen:       80 * time.Millisecond,
		BurstFactor:    3,
		MaxOutstanding: 16384,
		Seed:           1,
		MaxQueue:       64,
		// A short queue deadline keeps the accepted tail close to the
		// light-load tail: better to refuse than to serve a request the
		// client has mentally abandoned.
		QueueDeadline: 25 * time.Millisecond,
	}
}

// OverloadRow is one offered-load point.
type OverloadRow struct {
	Multiple   float64
	OfferedRPS float64 // measured arrival rate
	Arrivals   int64
	Accepted   int64 // completed with bytes
	Shed       int64 // refused with ErrOverloaded
	Abandoned  int64 // client deadline expired first
	Dropped    int64 // client-side: outstanding cap hit
	Errors     int64 // anything else (must be zero)
	P50, P99   time.Duration
	GoodputRPS float64
	GoodputBps float64
	ShedRate   float64
	Stats      proxy.Stats
}

// lrand is the experiment PRNG (splitmix-style; deterministic without
// global seeding, same policy as netsim).
type lrand struct{ state uint64 }

func (r *lrand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *lrand) float() float64 { return (float64(r.next()>>11) + 1) / float64(1<<53) }

func (r *lrand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *lrand) normal() float64 {
	return math.Sqrt(-2*math.Log(r.float())) * math.Cos(2*math.Pi*r.float())
}

// poisson draws an arrival count with the given mean.
func (r *lrand) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 { // normal approximation for large means
		k := int(mean + math.Sqrt(mean)*r.normal() + 0.5)
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.float()
		if p <= l {
			return k
		}
		k++
	}
}

// zipfTable samples key indexes with P(i) ∝ 1/(i+1)^s via the
// precomputed CDF (exact for the corpus sizes used here).
type zipfTable struct{ cdf []float64 }

func newZipfTable(n int, s float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfTable{cdf: cdf}
}

func (z *zipfTable) draw(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// boundedOrigin models the upstream server: a connection pool of size
// conns, svc per fetch. Waiting for a connection honors the fetch
// context, so an abandoned flight releases its place in line.
type boundedOrigin struct {
	inner proxy.Origin
	sem   chan struct{}
	svc   time.Duration
}

func newBoundedOrigin(inner proxy.Origin, conns int, svc time.Duration) *boundedOrigin {
	if conns <= 0 {
		conns = 8
	}
	return &boundedOrigin{inner: inner, sem: make(chan struct{}, conns), svc: svc}
}

func (b *boundedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	select {
	case b.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-b.sem }()
	if b.svc > 0 {
		select {
		case <-time.After(b.svc):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.Fetch(ctx, name)
}

// overloadProxy builds the proxy under test for one load point.
func overloadProxy(origin proxy.Origin, cfg OverloadConfig) *proxy.Proxy {
	return proxy.New(newBoundedOrigin(origin, cfg.OriginConns, cfg.OriginDelay), proxy.Config{
		Pipeline:      ServicePipeline(StandardPolicy(), false),
		CacheEnabled:  false, // worst case, as in Figure 10
		MaxQueue:      cfg.MaxQueue,
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDeadline: cfg.QueueDeadline,
	})
}

// MeasureSaturation runs a short closed-loop probe against an
// unprotected copy of the proxy and returns its sustainable
// requests/sec. The open-loop points are expressed as multiples of this
// rate, so the experiment lands on the same relative load curve on any
// host.
func MeasureSaturation(origin proxy.Origin, cfg OverloadConfig, window time.Duration) (float64, error) {
	probe := cfg
	probe.MaxQueue = 0 // closed loop never overloads; measure raw capacity
	p := overloadProxy(origin, probe)
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 16 {
		workers = 16 // must exceed the service-slot default to saturate
	}
	var done int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	timer := telemetry.StartTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; timer.Elapsed() < window; i++ {
				class := fmt.Sprintf("net/Applet%03d", (w*31+i)%cfg.Applets)
				_, err := p.Request(context.Background(), proxy.Lookup{
					Client: fmt.Sprintf("probe-%d", w), Arch: "dvm", Class: class,
				})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				done++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	elapsed := timer.Elapsed()
	if done == 0 || elapsed <= 0 {
		return 0, fmt.Errorf("eval: saturation probe completed no requests")
	}
	return float64(done) / elapsed.Seconds(), nil
}

// Overload runs the open-loop sweep and renders the table. satRPS <= 0
// triggers an automatic closed-loop probe.
func Overload(cfg OverloadConfig, satRPS float64) ([]OverloadRow, string, error) {
	if cfg.Applets <= 0 || cfg.Clients <= 0 || cfg.Duration <= 0 {
		return nil, "", fmt.Errorf("eval: overload config needs Applets, Clients, Duration")
	}
	origin, err := Corpus(cfg.Applets, cfg.AppletKB*1024, cfg.Seed)
	if err != nil {
		return nil, "", err
	}
	if satRPS <= 0 {
		satRPS, err = MeasureSaturation(origin, cfg, 400*time.Millisecond)
		if err != nil {
			return nil, "", err
		}
	}
	rows := make([]OverloadRow, 0, len(cfg.Multiples))
	for _, m := range cfg.Multiples {
		row, err := overloadPoint(origin, cfg, satRPS, m)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.1fx", r.Multiple),
			fmt.Sprintf("%.0f", r.OfferedRPS),
			fmt.Sprint(r.Arrivals),
			fmt.Sprint(r.Accepted),
			fmt.Sprintf("%.1f%%", r.ShedRate*100),
			ms(r.P50),
			ms(r.P99),
			fmt.Sprintf("%.0f", r.GoodputRPS),
			fmt.Sprintf("%.0f", r.GoodputBps/1024),
		})
	}
	text := fmt.Sprintf("saturation (closed-loop probe): %.0f req/s\n", satRPS) +
		table([]string{"Load", "Offered (r/s)", "Arrivals", "Accepted", "Shed", "p50 (ms)", "p99 (ms)", "Goodput (r/s)", "Goodput (KB/s)"}, cells)
	return rows, text, nil
}

// overloadPoint offers rate = satRPS * m open-loop for cfg.Duration.
func overloadPoint(origin proxy.Origin, cfg OverloadConfig, satRPS, m float64) (OverloadRow, error) {
	p := overloadProxy(origin, cfg)
	rng := &lrand{state: cfg.Seed ^ math.Float64bits(m)}
	zipf := newZipfTable(cfg.Applets, cfg.ZipfS)
	maxOut := cfg.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 16384
	}
	outstanding := make(chan struct{}, maxOut)

	var mu sync.Mutex
	var latencies []time.Duration
	row := OverloadRow{Multiple: m}
	var acceptedBytes int64
	var wg sync.WaitGroup

	rate := satRPS * m
	const tick = 2 * time.Millisecond
	window := telemetry.StartTimer()
	last := time.Duration(0)
	for {
		elapsed := window.Elapsed()
		if elapsed >= cfg.Duration {
			break
		}
		burst := 1.0
		if cfg.BurstEvery > 0 && cfg.BurstFactor > 0 && elapsed%cfg.BurstEvery < cfg.BurstLen {
			burst = cfg.BurstFactor
		}
		// Open loop: the arrival count covers the wall time actually
		// elapsed since the last tick, so scheduler starvation of this
		// goroutine cannot silently lower the offered rate.
		n := rng.poisson(rate * burst * (elapsed - last).Seconds())
		last = elapsed
		for i := 0; i < n; i++ {
			row.Arrivals++
			select {
			case outstanding <- struct{}{}:
			default:
				row.Dropped++ // client-side connection cap: open loop keeps going
				continue
			}
			client := fmt.Sprintf("c%06d", rng.intn(cfg.Clients))
			class := fmt.Sprintf("net/Applet%03d", zipf.draw(rng.float()))
			slow := rng.float() < cfg.SlowFraction
			budget := cfg.RequestTimeout
			if slow {
				// A modem client tolerates (and causes) a long transfer.
				budget += time.Duration(float64(netsim.Modem28k8.TransferTime(cfg.AppletKB*1024)) * cfg.SlowScale)
			}
			// The client's patience and the latency clock start at
			// arrival, not when the goroutine first gets CPU — otherwise
			// the scheduler run queue becomes an invisible unbounded
			// buffer in front of admission and overload never surfaces.
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			t := telemetry.StartTimer()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-outstanding }()
				defer cancel()
				res, err := p.Request(ctx, proxy.Lookup{Client: client, Arch: "dvm", Class: class})
				if err == nil && slow {
					netsim.Modem28k8.Sleep(len(res.Data), cfg.SlowScale)
				}
				lat := t.Elapsed()
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					row.Accepted++
					acceptedBytes += int64(len(res.Data))
					latencies = append(latencies, lat)
				case errors.Is(err, proxy.ErrOverloaded):
					row.Shed++
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					row.Abandoned++
				default:
					row.Errors++
				}
			}()
		}
		time.Sleep(tick)
	}
	arrivalWindow := window.Elapsed()
	wg.Wait()
	total := window.Elapsed()

	row.OfferedRPS = float64(row.Arrivals) / arrivalWindow.Seconds()
	if row.Arrivals > 0 {
		row.ShedRate = float64(row.Shed+row.Dropped) / float64(row.Arrivals)
	}
	// Goodput is over the full span including the drain, so queued work
	// finishing late cannot inflate it.
	row.GoodputRPS = float64(row.Accepted) / total.Seconds()
	row.GoodputBps = float64(acceptedBytes) / total.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	row.P50 = quantileDur(latencies, 0.50)
	row.P99 = quantileDur(latencies, 0.99)
	row.Stats = p.Stats()
	return row, nil
}

func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
