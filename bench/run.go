package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dvm/internal/eval"
	"dvm/internal/jvm"
	"dvm/internal/proxy"
	"dvm/internal/security"
)

// rounds is how many load slices a run measures. The host slows the
// benchmark down, never speeds it up, in epochs from seconds to minutes,
// so every metric is computed per round and the run reports the best
// round's value (see best): one undisturbed round in twenty is enough to
// keep a run where it belongs.
const rounds = 20

// bench is one set-up system: inputs, fleet, the clients' loaders, and
// the op counters.
type bench struct {
	c *corpus
	f *fleet
	// loaders[c][n] is client c's own HTTPLoader to node n.
	loaders [][]jvm.ClassLoader
	// pos[c] is how far client c has walked its partition; it persists
	// across slices so the request sequence depends only on the seed.
	pos        [clients]int
	nextLaunch int
	policy     *security.Policy

	// attempted counts loads, launches and the class loads inside launches;
	// classLoads counts every class load that reached the fleet.
	attempted  atomic.Int64
	classLoads atomic.Int64
	failed     atomic.Int64
	firstFail  atomic.Pointer[string]
}

func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	b.firstFail.CompareAndSwap(nil, &msg)
}

// fetch loads one class as client c through the workload's entry rule and
// compares it with the reference artifact. It returns the client-observed
// latency of HTTPLoader.Load.
func (b *bench) fetch(c int, name string) ([]byte, time.Duration, error) {
	b.attempted.Add(1)
	b.classLoads.Add(1)
	t0 := time.Now()
	data, err := b.loaders[c][b.f.entry[name]].Load(name)
	d := time.Since(t0)
	if err == nil && !bytes.Equal(data, b.c.want[name]) {
		err = fmt.Errorf("%d bytes differ from the reference artifact", len(data))
	}
	return data, d, err
}

// load is one operation of a load slice: a fetch that counts as failed,
// and gives no latency sample, unless the right bytes came back.
func (b *bench) load(c int, name string) (time.Duration, bool) {
	_, d, err := b.fetch(c, name)
	if err != nil {
		b.fail("load %s: %v", name, err)
	}
	return d, err == nil
}

// next returns client c's next class in its partition of the permuted
// corpus: indices ≡ c (mod clients), cyclically. Partitions are disjoint,
// so no client ever rides another's flight or fresh cache entry.
func (b *bench) next(c int) string {
	per := (len(b.c.order) - c + clients - 1) / clients
	name := b.c.order[c+clients*(b.pos[c]%per)]
	b.pos[c]++
	return name
}

// launchSample is one good launch: the time from jvm.New to RunMain
// returning, and the part of it spent inside the loader.
type launchSample struct {
	d, fetch time.Duration
}

// launch starts the next launch variant on a fresh VM whose every class
// comes through the fleet, and checks what it prints.
func (b *bench) launch() (s launchSample, ok bool) {
	la := b.c.launch[b.nextLaunch%len(b.c.launch)]
	b.nextLaunch++
	b.attempted.Add(1)
	loadFailed := false
	loader := jvm.FuncLoader(func(name string) ([]byte, error) {
		data, d, err := b.fetch(0, name)
		s.fetch += d
		if err != nil {
			loadFailed = true
			b.fail("launch %s: load %s: %v", la.main, name, err)
		}
		return data, err
	})
	var out bytes.Buffer
	t0 := time.Now()
	vm, err := jvm.New(loader, &out)
	if err != nil {
		b.fail("launch %s: %v", la.main, err)
		return s, false
	}
	vm.CheckAccess = security.NewManager(security.NewServer(b.policy), "apps")
	thrown, err := vm.RunMain(la.main, nil)
	s.d = time.Since(t0)
	switch {
	case loadFailed: // already counted, once per failed class
	case err != nil || thrown != nil:
		b.fail("launch %s: err=%v thrown=%s", la.main, err, jvm.DescribeThrowable(thrown))
	case out.String() != la.stdout:
		b.fail("launch %s printed %q, the untransformed app prints %q", la.main, out.String(), la.stdout)
	default:
		return s, true
	}
	return s, false
}

// loadSlice runs both clients closed-loop until the deadline (stop > 0)
// or for exactly count loads each (stop == 0). With a tracer, every load
// is wrapped in a client.load span. It returns every latency and the
// slice's wall time.
func (b *bench) loadSlice(stop time.Duration, count int, t *tracer) ([]time.Duration, time.Duration) {
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if stop > 0 && time.Since(start) >= stop || stop == 0 && i >= count {
					return
				}
				name := b.next(c)
				var d time.Duration
				var ok bool
				if t == nil {
					d, ok = b.load(c, name)
				} else {
					t.do(c, t.sliceID(c), "client.load", "", func() { d, ok = b.load(c, name) })
				}
				if ok {
					lats[c] = append(lats[c], d)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, wall
}

// launchSlice launches until the deadline (stop > 0) or exactly count
// times (stop == 0) from one client.
func (b *bench) launchSlice(stop time.Duration, count int) []launchSample {
	var out []launchSample
	start := time.Now()
	for i := 0; ; i++ {
		if stop > 0 && time.Since(start) >= stop || stop == 0 && i >= count {
			return out
		}
		if s, ok := b.launch(); ok {
			out = append(out, s)
		}
	}
}

// newBench starts the workload's fleet over already generated inputs,
// preloads it, and warms it up through the measured path with a fixed
// number of operations (divided by warmDiv, which only the test raises).
func newBench(def workloadDef, c *corpus, warmDiv int) (*bench, error) {
	f, err := startFleet(def, c)
	if err != nil {
		return nil, err
	}
	b := &bench{c: c, f: f, policy: eval.StandardPolicy()}
	for cl := 0; cl < clients; cl++ {
		row := make([]jvm.ClassLoader, def.nodes)
		for n, url := range f.lc.URLs() {
			row[n] = proxy.HTTPLoader(url, fmt.Sprintf("client%d", cl), arch)
		}
		b.loaders = append(b.loaders, row)
	}
	if def.preload {
		if err := f.preload(c); err != nil {
			b.close()
			return nil, err
		}
	}
	b.loadSlice(0, def.warmLoads/clients/warmDiv, nil)
	b.launchSlice(0, max(1, def.warmLaunches/warmDiv))
	if n := b.failed.Load(); n > 0 {
		b.close()
		return nil, fmt.Errorf("%d operations failed during warm-up; first: %s", n, *b.firstFail.Load())
	}
	return b, nil
}

// setUp does everything a run does before its first timed load: generate
// the inputs and their references from the seed, then newBench.
func setUp(def workloadDef, seed int64) (*bench, error) {
	c, err := buildCorpus(seed)
	if err != nil {
		return nil, err
	}
	return newBench(def, c, 1)
}

// close stops the fleet and drops the clients' idle connections to it.
func (b *bench) close() {
	b.f.close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// cpuTime is the process's user+system CPU time: client, every node and
// the garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundResult is one round's value of every end-to-end metric but
// setup_s, with the sample counts behind them and the calibration run
// after the round's load slice. The info line prints it as it is.
type roundResult struct {
	Loads     int     `json:"loads"`
	BeyondP99 int     `json:"beyond_p99"`
	P50us     float64 `json:"load_p50_us"`
	P99us     float64 `json:"load_p99_us"`
	Goodput   float64 `json:"goodput_loads_per_s"`
	CPUus     float64 `json:"cpu_us_per_load"`
	AllocKB   float64 `json:"alloc_kb_per_load"`
	CalibMs   float64 `json:"calib_ms"`
}

// measureRound runs one load slice from a collected heap, then the
// calibration kernel.
func (b *bench) measureRound(loadDur time.Duration) roundResult {
	var r roundResult
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	lats, wall := b.loadSlice(loadDur, 0, nil)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	r.CalibMs = us(calibrate()) / 1000

	r.Loads = len(lats)
	if r.Loads > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		r.P50us = us(quantile(lats, 0.50))
		r.P99us = us(quantile(lats, 0.99))
		r.BeyondP99 = r.Loads - int(0.99*float64(r.Loads))
		r.Goodput = float64(r.Loads) / wall.Seconds()
		r.CPUus = us(cpu1-cpu0) / float64(r.Loads)
		r.AllocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(r.Loads)
	}
	return r
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile reads the q-quantile off sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// best returns the best of the rounds' values; lower says which end is
// best.
func best(v []float64, lower bool) float64 {
	if lower {
		return slices.Min(v)
	}
	return slices.Max(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
