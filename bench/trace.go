package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dvm/internal/attest"
	"dvm/internal/classfile"
	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/eval"
	"dvm/internal/jvm"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
)

// The traced run produces the per-layer ledger. It has two parts.
//
// On the workload's own fleet it alternates untraced and traced load
// slices (traced = every load wrapped in a client.load span) and runs one
// launch slice; the counts per load, the launch fetch time and the tracing
// overhead come from there.
//
// Then, for ledgerSamples classes of the seed's permutation, it walks the
// decomposed path one layer at a time, on fixtures of its own so that every
// workload reports every layer: the client's HTTP load, the in-process
// request underneath it, the pipeline run underneath that, and the
// pipeline's stages one by one. Replays run one after another, not nested
// in time; a span's parent is the span it decomposes, and a layer's self
// time is its duration minus its children's.

const (
	ledgerSamples = 512
	// allocSamples of them are re-walked with an allocation count around
	// every call; counting stops the world, so it is kept out of the timed
	// walk.
	allocSamples = 128
	// tracePairs is how many [untraced, traced] load-slice pairs the
	// overhead ratio is taken over.
	tracePairs   = 4
	jvmLaunches  = 16
	sliceSpanIDs = 1 << 20 // span ids at and above this belong to slice loads
)

// span is one recorded interval: who (a sampled load's id), what, under
// which span, from when to when (ns since the tracer started).
type span struct {
	id         int
	name       string
	parent     string
	start, end int64
}

// tracer holds spans in memory, one buffer per client goroutine plus one
// for the ledger walk, and writes them out when the run ends.
type tracer struct {
	t0    time.Time
	spans [clients + 1][]span
	loads [clients]int // slice loads traced so far, per client
}

// sliceID numbers client c's next slice load; ledger samples use the ids
// below sliceSpanIDs.
func (t *tracer) sliceID(c int) int {
	t.loads[c]++
	return sliceSpanIDs + clients*t.loads[c] + c
}

// do times fn as a span in buffer who.
func (t *tracer) do(who, id int, name, parent string, fn func()) time.Duration {
	s := time.Since(t.t0)
	fn()
	e := time.Since(t.t0)
	t.spans[who] = append(t.spans[who], span{id, name, parent, int64(s), int64(e)})
	return e - s
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"columns":["id","name","parent","start_ns","end_ns"],"spans":[`)
	first := true
	for _, buf := range t.spans {
		for _, s := range buf {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n[%d,%q,%q,%d,%d]", s.id, s.name, s.parent, s.start, s.end)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mallocs is the process-wide count of heap objects allocated so far.
func mallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// samples collects one layer metric's per-sample values.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addDur(name string, d time.Duration) { s.add(name, us(d)) }

// ledgerFixtures are the systems the ledger walk measures layers on.
type ledgerFixtures struct {
	hit      *cluster.LocalCluster // 1 node, cache on: resident keys
	hitHTTP  jvm.ClassLoader
	miss     *proxy.Proxy // cache off: every request is a full miss
	fleet    *fleet       // 3 attested nodes, unbounded caches, starts cold
	pipe     *rewrite.Pipeline
	stages   []*rewrite.Pipeline // pipe's filters, one pipeline each
	basePipe *rewrite.Pipeline   // pipe without the compile step
	auth     *attest.Authority
}

func startLedgerFixtures(c *corpus, names []string) (*ledgerFixtures, error) {
	fx := &ledgerFixtures{
		miss:     proxy.New(c.origin, proxy.Config{Pipeline: servicePipeline()}),
		pipe:     servicePipeline(),
		basePipe: eval.ServicePipeline(eval.StandardPolicy(), false),
		auth: attest.New(attest.Config{Key: []byte("bench-ledger-key"),
			Policy: attest.Policy{Quorum: 2, Mode: attest.ModeAlways}}),
	}
	for _, f := range fx.pipe.Filters() {
		// A one-filter pipeline runs the stage exactly as Process does,
		// per-method fan-out included, which Filter.Transform alone does not.
		fx.stages = append(fx.stages, rewrite.NewPipeline(f))
	}
	hit, err := startFleet(workloadDef{nodes: 1}, c)
	if err != nil {
		return nil, err
	}
	fx.hit = hit.lc
	fx.hitHTTP = proxy.HTTPLoader(hit.lc.URLs()[0], "ledger", arch)
	for _, name := range names {
		// Make the sampled keys resident on the hit fixture.
		if _, err := fx.hitHTTP.Load(name); err != nil {
			fx.hit.Close()
			return nil, err
		}
	}
	if fx.fleet, err = startFleet(workloadDef{nodes: 3}, c); err != nil {
		fx.hit.Close()
		return nil, err
	}
	return fx, nil
}

func (fx *ledgerFixtures) close() {
	fx.hit.Close()
	fx.fleet.close()
}

// stageNames are the per-layer metric prefixes of the pipeline's filters,
// in pipeline order.
var stageNames = []string{"verifier.verify", "security.filter", "monitor.filter", "compiler.filter"}

// walk runs the decomposed path for one sampled class. With count set it
// records allocations instead of spans and times.
func (fx *ledgerFixtures) walk(b *bench, t *tracer, s samples, id int, name string, count bool) error {
	raw := b.c.origin[name]
	want := b.c.want[name]
	ctx := context.Background()
	lookup := proxy.Lookup{Client: "ledger", Arch: arch, Class: name}
	var err error
	// measure runs fn as span spanName under parent; timed walks record the
	// span and return its duration in µs, counted walks return the number
	// of objects fn allocated anywhere in the process.
	var lastKB float64
	measure := func(spanName, parent string, fn func() error) float64 {
		if err != nil {
			return 0
		}
		if count {
			o0, b0 := mallocs()
			err = fn()
			o1, b1 := mallocs()
			lastKB = float64(b1-b0) / 1024
			return float64(o1 - o0)
		}
		return us(t.do(clients, id, spanName, parent, func() { err = fn() }))
	}
	check := func(data []byte, e error) error {
		if e == nil && !bytes.Equal(data, want) {
			e = fmt.Errorf("%s: artifact differs from the reference", name)
		}
		return e
	}
	suffix := "_us"
	if count {
		suffix = "_allocs"
	}

	// The client's load on the workload's own fleet, then the same load on
	// the hit fixture over HTTP and in-process: the difference is the HTTP
	// hop (front end + wire + client loader).
	if !count {
		measure("client.load", "", func() error {
			if _, ok := b.load(0, name); !ok {
				return fmt.Errorf("client.load %s failed", name)
			}
			return nil
		})
	}
	hitNode := fx.hit.Nodes[0]
	httpHit := measure("proxy.http_load", "client.load", func() error {
		return check(fx.hitHTTP.Load(name))
	})
	inHit := measure("proxy.request.hit", "proxy.http_load", func() error {
		res, e := hitNode.Request(ctx, lookup)
		return check(res.Data, e)
	})
	s.add("proxy.hit"+suffix, inHit)
	s.add("proxy.http_hop"+suffix, httpHit-inHit)

	// A full miss in-process, the pipeline run inside it, and the
	// pipeline's stages.
	inMiss := measure("proxy.request.miss", "client.load", func() error {
		res, e := fx.miss.Request(ctx, lookup)
		return check(res.Data, e)
	})
	cs0 := classfile.CodecStats()
	process := measure("rewrite.process", "proxy.request.miss", func() error {
		rctx := rewrite.NewContext()
		rctx.ClientArch = arch
		return check(fx.pipe.Process(raw, rctx))
	})
	cs1 := classfile.CodecStats()
	s.add("rewrite.process"+suffix, process)
	if count {
		s.add("rewrite.process_kb", lastKB)
	} else {
		s.add("proxy.miss_self_us", inMiss-process)
		s.add("rewrite.out_in_bytes_ratio", float64(len(want))/float64(len(raw)))
		s.add("classfile.attrs_decoded_ratio", ratio(cs1.AttrsDecoded-cs0.AttrsDecoded, cs1.AttrsSeen-cs0.AttrsSeen))
		s.add("classfile.splice_encode_ratio", ratio(cs1.SpliceEncodes-cs0.SpliceEncodes,
			cs1.SpliceEncodes-cs0.SpliceEncodes+cs1.FullEncodes-cs0.FullEncodes))
	}
	var cf *classfile.ClassFile
	stepped := measure("classfile.parse", "rewrite.process", func() (e error) {
		cf, e = classfile.Parse(raw)
		return e
	})
	s.add("classfile.parse"+suffix, stepped)
	rctx := rewrite.NewContext()
	rctx.ClientArch = arch
	for i, stage := range fx.stages {
		v := measure(stageNames[i], "rewrite.process", func() error { return stage.ProcessClass(cf, rctx) })
		s.add(stageNames[i]+suffix, v)
		stepped += v
	}
	enc := measure("classfile.encode", "rewrite.process", func() error {
		return check(cf.Encode())
	})
	s.add("classfile.encode"+suffix, enc)
	stepped += enc
	if err == nil {
		cf.Release()
	}
	if !count {
		s.add("rewrite.step_cover", stepped/process)
	}

	// The 3-node fixture: the owner's cold request (pipeline + quorum round
	// + seal), its hit, and the same key from the non-owner (one peer hop).
	owner, entry := fx.fleet.lc.Nodes[fx.fleet.owner[name]], fx.fleet.lc.Nodes[fx.fleet.entry[name]]
	if !count {
		cold := measure("cluster.request.cold", "client.load", func() error {
			res, e := owner.Request(ctx, lookup)
			return check(res.Data, e)
		})
		s.add("cluster.attest_round_us", cold-inMiss)
	}
	ownerHit := measure("cluster.request.owner_hit", "cluster.request.peer", func() error {
		res, e := owner.Request(ctx, lookup)
		return check(res.Data, e)
	})
	viaPeer := measure("cluster.request.peer", "client.load", func() error {
		res, e := entry.Request(ctx, lookup)
		return check(res.Data, e)
	})
	s.add("cluster.peer_hop"+suffix, viaPeer-ownerHit)
	if count {
		return err
	}
	s.add("cluster.variant_digest_us", measure("cluster.variant_digest", "cluster.request.cold", func() error {
		d, e := entry.Proxy().TransformDigest(ctx, arch, name, raw)
		if e == nil && d != attest.Digest(want) {
			e = fmt.Errorf("%s: variant digest differs from the reference", name)
		}
		return e
	}))

	// Attestation primitives on the artifact, and the AOT derive step.
	var att *attest.Attestation
	s.add("attest.digest_us", measure("attest.digest", "cluster.request.cold", func() error {
		attest.Digest(want)
		return nil
	}))
	s.add("attest.seal_us", measure("attest.seal", "cluster.request.cold", func() error {
		att = fx.auth.Attest(arch, name, want, 2, []string{"a", "b"})
		return nil
	}))
	s.add("attest.verify_us", measure("attest.verify", "cluster.request.peer", func() error {
		return fx.auth.Verify(att, arch, name, want)
	}))
	s.add("attest.header_codec_us", measure("attest.header_codec", "cluster.request.peer", func() error {
		_, e := attest.Decode(att.Encode())
		return e
	}))
	var base []byte
	if err == nil {
		bctx := rewrite.NewContext()
		bctx.ClientArch = arch
		base, err = fx.basePipe.Process(raw, bctx)
	}
	s.add("compiler.derive_us", measure("compiler.derive", "", func() error {
		return check(compiler.CompileArtifact(base))
	}))
	return err
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// jvmLedger measures the client runtime on pre-fetched artifacts of one
// launch app: boot, class definition, interpretation.
func jvmLedger(c *corpus, policy *security.Policy, s samples, launches int) error {
	la := c.launch[0]
	classes := jvm.MapLoader{}
	names := make([]string, 0, len(la.classes))
	for name := range la.classes {
		classes[name] = c.want[name]
		names = append(names, name)
	}
	sort.Strings(names)
	for i := 0; i < launches; i++ {
		t0 := time.Now()
		if _, err := jvm.New(jvm.MapLoader{}, io.Discard); err != nil {
			return err
		}
		s.addDur("jvm.boot_us", time.Since(t0))

		vm, err := jvm.New(jvm.MapLoader{}, io.Discard)
		if err != nil {
			return err
		}
		for _, name := range names {
			t0 = time.Now()
			if _, err := vm.DefineClass(name, classes[name]); err != nil {
				return err
			}
			s.addDur("jvm.define_us", time.Since(t0))
		}

		var out bytes.Buffer
		o0, _ := mallocs()
		if vm, err = jvm.New(classes, &out); err != nil {
			return err
		}
		vm.CheckAccess = security.NewManager(security.NewServer(policy), "apps")
		t0 = time.Now()
		thrown, err := vm.RunMain(la.main, nil)
		d := time.Since(t0)
		o1, _ := mallocs()
		if err != nil || thrown != nil || out.String() != la.stdout {
			return fmt.Errorf("jvm ledger launch of %s: err=%v thrown=%v stdout=%q", la.main, err, thrown != nil, out.String())
		}
		s.add("jvm.run_main_ms", us(d)/1000)
		s.add("jvm.ns_per_instr", float64(d.Nanoseconds())/float64(vm.Stats.InstructionsExecuted))
		s.add("jvm.instr_per_launch", float64(vm.Stats.InstructionsExecuted))
		s.add("jvm.classes_per_launch", float64(vm.Stats.ClassesLoaded))
		s.add("jvm.allocs_per_launch", float64(o1-o0))
	}
	return nil
}

// tracePlan sizes a traced run; only the test shrinks it.
type tracePlan struct {
	loadDur, launchDur time.Duration
	pairs              int // [untraced, traced] load-slice pairs
	launches           int // launch slice length when launchDur is 0
	samples, allocs    int // ledger samples: timed, and re-walked counting allocations
	jvmLaunches        int
	outDir             string
}

// traced runs both parts of the traced run on a set-up bench and returns
// every per-layer metric and any breach.
func (b *bench) traced(p tracePlan) (map[string]metric, error) {
	t := &tracer{t0: time.Now()}
	s := samples{}

	// Part 1: the workload's fleet, untraced and traced slices alternating.
	var plain, traced []float64
	before, ops0 := b.counters(), b.classLoads.Load()
	for i := 0; i < p.pairs; i++ {
		runtime.GC()
		s.add("bench.calib_ms", us(calibrate())/1000)
		lats, wall := b.loadSlice(p.loadDur, 0, nil)
		plain = append(plain, float64(len(lats))/wall.Seconds())
		runtime.GC()
		s.add("bench.calib_ms", us(calibrate())/1000)
		lats, wall = b.loadSlice(p.loadDur, 0, t)
		traced = append(traced, float64(len(lats))/wall.Seconds())
	}
	runtime.GC()
	s.add("bench.calib_ms", us(calibrate())/1000)
	for _, l := range b.launchSlice(p.launchDur, p.launches) {
		s.add("jvm.launch_p50_ms", us(l.d)/1000)
		s.add("jvm.launch_fetch_ms", us(l.fetch)/1000)
	}
	d, loads := b.counters().minus(before), float64(b.classLoads.Load()-ops0)
	breach := checkMix(b.f.def, d, int64(loads))

	// Part 2: the ledger walk, with the collector held off so it cannot
	// land inside a span; it runs between samples instead.
	names := b.c.order[:min(p.samples, len(b.c.order))]
	fx, err := startLedgerFixtures(b.c, names)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	for i, name := range names {
		if i%16 == 0 {
			runtime.GC()
		}
		if err := fx.walk(b, t, s, i, name, false); err != nil {
			return nil, fmt.Errorf("ledger walk: %w", err)
		}
	}
	// Let the fixture's replica pushes drain so they are not counted as
	// some later call's allocations.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		pushed := int64(0)
		for _, node := range fx.fleet.lc.Nodes {
			pushed += node.ReplicasPushed()
		}
		if pushed >= int64(len(names)) {
			break
		}
	}
	for i, name := range names[:min(p.allocs, len(names))] {
		if i%16 == 0 {
			runtime.GC()
		}
		if err := fx.walk(b, t, s, i, name, true); err != nil {
			return nil, fmt.Errorf("ledger walk (allocations): %w", err)
		}
	}
	runtime.GC()
	if err := jvmLedger(b.c, b.policy, s, p.jvmLaunches); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	for name, v := range s {
		m[name] = metric{median(v), unitOf(name)}
	}
	m["proxy.cache_hit_ratio"] = metric{float64(d.hits) / float64(d.requests), "ratio"}
	m["proxy.origin_fetches_per_load"] = metric{float64(d.originFetches) / loads, "1/load"}
	m["proxy.coalesced_per_load"] = metric{float64(d.coalesced) / loads, "1/load"}
	m["proxy.bytes_out_per_load"] = metric{float64(d.bytesOut) / loads, "B/load"}
	m["cluster.peer_fills_per_load"] = metric{float64(d.peerHits) / loads, "1/load"}
	m["cluster.replicas_pushed_per_load"] = metric{float64(d.replicasPushed) / loads, "1/load"}
	m["cluster.attest_variants_per_load"] = metric{float64(d.attestVariants) / loads, "1/load"}
	m["cluster.attest_degraded"] = metric{float64(d.attestDegraded), "count"}
	m["cluster.peer_errors"] = metric{float64(d.peerErrors), "count"}
	m["bench.trace_overhead_ratio"] = metric{median(traced) / median(plain), "ratio"}
	calib := s["bench.calib_ms"]
	sort.Float64s(calib)
	m["bench.calib_spread"] = metric{(calib[len(calib)*3/4] - calib[len(calib)/4]) / median(calib), "ratio"}

	if err := t.write(filepath.Join(p.outDir, "trace-"+b.f.def.name+".json")); err != nil {
		return nil, err
	}
	if cover := m["rewrite.step_cover"].Value; breach == nil && (cover < 0.85 || cover > 1.15) {
		breach = fmt.Errorf("rewrite.step_cover = %.3f: the stepped stages do not add up to the pipeline run", cover)
	}
	return m, breach
}

// runTraced is the -trace 1 mode: one set-up, then the traced run.
func runTraced(def workloadDef, seed int64, dur time.Duration, outDir string) (result, error) {
	b, err := setUp(def, seed)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	loadDur := time.Duration(float64(dur) * 0.8 / (2 * tracePairs))
	m, breach := b.traced(tracePlan{
		pairs: tracePairs, loadDur: loadDur, launchDur: dur - 2*tracePairs*loadDur,
		samples: ledgerSamples, allocs: allocSamples, jvmLaunches: jvmLaunches, outDir: outDir,
	})
	if m == nil {
		return result{}, breach
	}
	return b.finish(m, nil, breach), nil
}

// unitOf derives a sampled layer metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_allocs", "count"}, {"_kb", "KB"}, {"_ratio", "ratio"},
		{"step_cover", "ratio"}, {"ns_per_instr", "ns"}, {"_per_launch", "count"},
	} {
		if len(name) >= len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}
