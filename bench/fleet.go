package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dvm/internal/classfile"
	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/eval"
	"dvm/internal/jvm"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// clients is the number of closed-loop client goroutines: one per core of
// the 2-core host the benchmark was sized on. More would only queue.
const clients = 2

// launchVariants is how many renamed copies of the launch app exist. In
// cold_attest_3n a variant's 34 artifacts (about 100 KB) are stored twice
// (owner and replica) across three 1 MiB caches, so one pass over all
// variants puts about 3 MiB through every cache before any variant repeats.
const launchVariants = 48

const arch = compiler.ArchDVM

// workloadDef fixes everything about a workload except the seed. Why each
// exists is in BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	nodes int
	// cacheOff disables the result cache (miss_1n); cacheBudget bounds it
	// (cold_attest_3n); preload fills every owner's cache at set-up.
	cacheOff    bool
	cacheBudget int
	preload     bool
	// warmLoads and warmLaunches are the fixed-count warm-up through the
	// measured path, sized on the seed tree to about a second of work so
	// that set-up is seconds of deterministic work.
	warmLoads    int
	warmLaunches int
}

var workloads = []workloadDef{
	{name: "hit_1n", nodes: 1, preload: true, warmLoads: 10000, warmLaunches: 6},
	{name: "miss_1n", nodes: 1, cacheOff: true, warmLoads: 1810, warmLaunches: 6},
	{name: "peer_hit_3n", nodes: 3, preload: true, warmLoads: 2715, warmLaunches: 6},
	{name: "cold_attest_3n", nodes: 3, cacheBudget: 1 << 20, warmLoads: 905, warmLaunches: 4},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// launchApp is one renamed copy of the Cassowary spec.
type launchApp struct {
	main    string
	classes map[string][]byte // untransformed, for the reference VM
	stdout  string            // what the untransformed app prints on a local VM
}

// corpus is everything generated from the seed: origin bytes, the
// request order, the launch apps, and the reference outputs the checks
// compare against.
type corpus struct {
	origin proxy.MapOrigin
	names  []string // every key of origin, sorted
	// order is the corpus class names permuted by the seed; client c walks
	// order[c], order[c+clients], ... cyclically.
	order  []string
	launch []launchApp
	// want is the transformed artifact for every key, produced at set-up by
	// a pipeline instance no fleet shares. The repo's digest invariant says
	// every node and every path must serve exactly these bytes.
	want map[string][]byte
}

// servicePipeline is the pipeline dvmproxy serves DVM clients with.
func servicePipeline() *rewrite.Pipeline {
	return eval.ServicePipeline(eval.StandardPolicy(), true)
}

// parallelEach runs fn(i) for i in [0,n) on `clients` goroutines and
// returns the first error by index.
func parallelEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clients {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildCorpus generates the inputs for one seed and their reference
// outputs.
func buildCorpus(seed int64) (*corpus, error) {
	c := &corpus{origin: proxy.MapOrigin{}, want: map[string][]byte{}}
	specs := append(workload.Benchmarks(), workload.Applets()...)
	var cassowary workload.Spec
	for i := range specs {
		specs[i].Seed += uint64(seed)
		if specs[i].Package == "cassowary" {
			cassowary = specs[i]
		}
	}
	apps, err := eval.GenerateAll(specs)
	if err != nil {
		return nil, err
	}
	for _, app := range apps {
		for name, data := range app.Classes {
			c.origin[name] = data
			c.order = append(c.order, name)
		}
	}
	sort.Strings(c.order)
	rand.New(rand.NewSource(seed)).Shuffle(len(c.order), func(i, j int) {
		c.order[i], c.order[j] = c.order[j], c.order[i]
	})

	c.launch = make([]launchApp, launchVariants)
	err = parallelEach(launchVariants, func(i int) error {
		spec := cassowary
		spec.Package = fmt.Sprintf("launch%02d", i)
		app, err := workload.Generate(spec)
		if err != nil {
			return err
		}
		var out bytes.Buffer
		vm, err := jvm.New(jvm.MapLoader(app.Classes), &out)
		if err != nil {
			return err
		}
		if thrown, err := vm.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
			return fmt.Errorf("reference launch of %s: err=%v thrown=%v", spec.MainClass(), err, thrown != nil)
		}
		c.launch[i] = launchApp{main: spec.MainClass(), classes: app.Classes, stdout: out.String()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, la := range c.launch {
		if la.stdout == "" {
			return nil, fmt.Errorf("reference launch of %s printed nothing", la.main)
		}
		for name, data := range la.classes {
			c.origin[name] = data
		}
	}

	for name := range c.origin {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	names := c.names
	pipe := servicePipeline()
	outs := make([][]byte, len(names))
	err = parallelEach(len(names), func(i int) error {
		rctx := rewrite.NewContext()
		rctx.ClientArch = arch
		out, err := pipe.Process(c.origin[names[i]], rctx)
		if err != nil {
			return fmt.Errorf("reference pipeline on %s: %w", names[i], err)
		}
		cf, err := classfile.Parse(out)
		if err != nil {
			return fmt.Errorf("reference artifact %s does not parse: %w", names[i], err)
		}
		got := cf.Name()
		cf.Release()
		if got != names[i] {
			return fmt.Errorf("reference artifact for %s declares %s", names[i], got)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		c.want[name] = outs[i]
	}
	return c, nil
}

// fleet is one workload's system under test plus the routing derived
// from it.
type fleet struct {
	def workloadDef
	lc  *cluster.LocalCluster
	// entry and owner map every key to the node index a client sends it to
	// and the node index that owns it. On 1-node fleets both are 0.
	entry map[string]int
	owner map[string]int
}

// startFleet builds the workload's fleet over real loopback listeners and
// derives the routing.
func startFleet(def workloadDef, c *corpus) (*fleet, error) {
	mkProxy := func(int) proxy.Config {
		return proxy.Config{
			Pipeline:     servicePipeline(),
			CacheEnabled: !def.cacheOff,
			CacheBudget:  def.cacheBudget,
		}
	}
	mkCluster := func(int) cluster.Config {
		if def.nodes == 1 {
			// A 1-node fleet has no peer to replicate to or vote with.
			return cluster.Config{GossipInterval: -1, PrefetchK: -1, HotThreshold: -1, Replication: 1}
		}
		return cluster.Config{
			AttestKey:      []byte("bench-fleet-key"),
			AttestQuorum:   2,
			Replication:    2,
			HotThreshold:   -1,
			PrefetchK:      -1,
			GossipInterval: -1,
		}
	}
	lc, err := cluster.StartLocal(c.origin, def.nodes, mkProxy, mkCluster)
	if err != nil {
		return nil, err
	}
	f := &fleet{def: def, lc: lc, entry: map[string]int{}, owner: map[string]int{}}
	if err := f.route(c); err != nil {
		lc.Close()
		return nil, err
	}
	return f, nil
}

// route fixes, per key, the entry node and the owner from the ring — never
// from node order, because ring placement hashes the listeners' ephemeral
// ports and so differs from run to run. On 3-node fleets the entry is the
// one node that is neither owner nor replica of the key. It fails unless
// every node computes the same owners.
func (f *fleet) route(c *corpus) error {
	if f.def.nodes == 1 {
		for name := range c.origin {
			f.entry[name], f.owner[name] = 0, 0
		}
		return nil
	}
	if len(f.lc.Nodes) != 3 {
		return fmt.Errorf("the entry rule needs 3 nodes and replication 2, have %d nodes", len(f.lc.Nodes))
	}
	index := map[string]int{}
	for i, n := range f.lc.Nodes {
		index[n.Self()] = i
	}
	for name := range c.origin {
		key := cluster.KeyFor(arch, name)
		owners := f.lc.Nodes[0].Ring().Owners(key, 2)
		for _, n := range f.lc.Nodes[1:] {
			if o := n.Ring().Owners(key, 2); len(o) != 2 || o[0] != owners[0] || o[1] != owners[1] {
				return fmt.Errorf("nodes disagree on the owners of %s: %v vs %v", name, owners, o)
			}
		}
		entry := -1
		for i, n := range f.lc.Nodes {
			if n.Self() != owners[0] && n.Self() != owners[1] {
				entry = i
			}
		}
		if entry < 0 {
			return fmt.Errorf("no non-owner entry node for %s (owners %v)", name, owners)
		}
		f.entry[name], f.owner[name] = entry, index[owners[0]]
	}
	return nil
}

// preload requests every key in-process at its owner, so the owner's
// cache holds it (and, on attested fleets, the replica push is queued).
func (f *fleet) preload(c *corpus) error {
	names := c.names
	return parallelEach(len(names), func(i int) error {
		res, err := f.lc.Nodes[f.owner[names[i]]].Request(context.Background(),
			proxy.Lookup{Client: "preload", Arch: arch, Class: names[i]})
		if err != nil {
			return fmt.Errorf("preload %s: %w", names[i], err)
		}
		if !bytes.Equal(res.Data, c.want[names[i]]) {
			return fmt.Errorf("preload %s: artifact differs from the reference", names[i])
		}
		return nil
	})
}

func (f *fleet) close() { f.lc.Close() }
