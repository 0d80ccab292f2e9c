package eval

import (
	"fmt"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/telemetry"
	"dvm/internal/verifier"
	"dvm/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 5: the benchmark application table.

// Fig5Row mirrors one line of the paper's Figure 5.
type Fig5Row struct {
	Name        string
	SizeBytes   int
	Classes     int
	Description string
}

// Fig5 generates the benchmark suite and reports its inventory.
func Fig5(specs []workload.Spec) ([]Fig5Row, string, error) {
	apps, err := GenerateAll(specs)
	if err != nil {
		return nil, "", err
	}
	rows := make([]Fig5Row, len(apps))
	var cells [][]string
	for i, app := range apps {
		rows[i] = Fig5Row{
			Name:        app.Spec.Name,
			SizeBytes:   app.TotalBytes,
			Classes:     len(app.Classes),
			Description: app.Spec.Description,
		}
		cells = append(cells, []string{
			rows[i].Name,
			fmt.Sprintf("%dK", rows[i].SizeBytes/1024),
			fmt.Sprint(rows[i].Classes),
			rows[i].Description,
		})
	}
	return rows, table([]string{"Name", "Size", "Classes", "Description"}, cells), nil
}

// ---------------------------------------------------------------------------
// Figure 6: end-to-end application performance, monolithic vs DVM
// (uncached) vs DVM (cached).

// Fig6Row is one bar group of Figure 6.
type Fig6Row struct {
	Name       string
	Monolithic time.Duration
	DVM        time.Duration // first (uncached) execution
	DVMCached  time.Duration // subsequent execution, proxy cache warm
}

// Fig6 measures end-to-end run time of each benchmark under the two
// service architectures. Identical runtime, identical hardware; only the
// location and implementation of the services differ — the paper's
// methodology.
func Fig6(specs []workload.Spec) ([]Fig6Row, string, error) {
	policy := StandardPolicy()
	rows := make([]Fig6Row, 0, len(specs))
	for _, spec := range specs {
		app, err := workload.Generate(spec)
		if err != nil {
			return nil, "", err
		}
		origin := proxy.MapOrigin(app.Classes)

		// Monolithic: null proxy; verification, stack-introspection
		// security, and auditing all run in the client.
		nullProxy := proxy.New(origin, proxy.Config{})
		mono, err := NewMonolithic(nullProxy.Loader("mono", "x86-jdk"), policy, true, true)
		if err != nil {
			return nil, "", err
		}
		start := telemetry.StartTimer()
		if thrown, err := mono.VM.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
			return nil, "", runFail(spec.Name+" (monolithic)", thrown, err)
		}
		monoTime := start.Elapsed()

		// DVM uncached: first execution through a cold proxy.
		dvmProxy := proxy.New(origin, proxy.Config{
			Pipeline:     ServicePipeline(policy, true),
			CacheEnabled: true,
		})
		secServer := security.NewServer(policy)
		coll := monitor.NewCollector()
		run := func(id string) (time.Duration, error) {
			c, err := NewDVMClient(dvmProxy, id, secServer, coll)
			if err != nil {
				return 0, err
			}
			start := telemetry.StartTimer()
			thrown, err := c.VM.RunMain(spec.MainClass(), nil)
			if err != nil || thrown != nil {
				return 0, runFail(spec.Name+" (dvm)", thrown, err)
			}
			return start.Elapsed(), nil
		}
		dvmTime, err := run("client-1")
		if err != nil {
			return nil, "", err
		}
		// DVM cached: another host in the organization runs the same app.
		cachedTime, err := run("client-2")
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Fig6Row{Name: spec.Name, Monolithic: monoTime, DVM: dvmTime, DVMCached: cachedTime})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name, secs(r.Monolithic), secs(r.DVM), secs(r.DVMCached),
			fmt.Sprintf("%+.1f%%", pct(r.DVM, r.Monolithic)),
			fmt.Sprintf("%+.1f%%", pct(r.DVMCached, r.Monolithic)),
		})
	}
	return rows, table(
		[]string{"Benchmark", "Monolithic(s)", "DVM(s)", "DVMCached(s)", "DVM vs mono", "cached vs mono"},
		cells), nil
}

func pct(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a)/float64(b) - 1) * 100
}

func runFail(what string, thrown *jvm.Object, err error) error {
	if err != nil {
		return fmt.Errorf("eval: %s: %w", what, err)
	}
	return fmt.Errorf("eval: %s: uncaught %s", what, jvm.DescribeThrowable(thrown))
}

// ---------------------------------------------------------------------------
// Figure 7: client-side verification overhead — the difference in total
// client running time between unverified and verified configurations.

// Fig7Row is one bar group of Figure 7.
type Fig7Row struct {
	Name           string
	MonolithicCost time.Duration // local verification time on the client
	DVMCost        time.Duration // run-time cost of the injected checks
}

// Fig7 plots the verification time spent on clients: monolithic clients
// verify every class locally; DVM clients only execute the few injected
// link checks.
func Fig7(specs []workload.Spec) ([]Fig7Row, string, error) {
	rows := make([]Fig7Row, 0, len(specs))
	for _, spec := range specs {
		app, err := workload.Generate(spec)
		if err != nil {
			return nil, "", err
		}
		origin := proxy.MapOrigin(app.Classes)

		// Monolithic verified vs unverified: the LocalHook records exactly
		// the verification time, which is the paper's run-time delta
		// without measurement noise.
		nullProxy := proxy.New(origin, proxy.Config{})
		mono, err := NewMonolithic(nullProxy.Loader("m", "x86-jdk"), nil, true, false)
		if err != nil {
			return nil, "", err
		}
		if thrown, err := mono.VM.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
			return nil, "", runFail(spec.Name, thrown, err)
		}

		// DVM: verified (self-verifying classes through the verifier
		// filter) vs unverified (null pipeline); both cached so only
		// client-side work differs.
		delta, err := dvmVerifyDelta(spec, origin)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Fig7Row{Name: spec.Name, MonolithicCost: mono.VerifyTime, DVMCost: delta})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Name, ms(r.MonolithicCost), ms(r.DVMCost)})
	}
	return rows, table([]string{"Benchmark", "Monolithic (ms)", "DVM client (ms)"}, cells), nil
}

// dvmVerifyDelta measures what the verification service costs a DVM
// client: a cache-warm run of self-verifying classes against one of the
// originals.
func dvmVerifyDelta(spec workload.Spec, origin proxy.Origin) (time.Duration, error) {
	proxies := [2]*proxy.Proxy{
		proxy.New(origin, proxy.Config{CacheEnabled: true}),
		proxy.New(origin, proxy.Config{
			Pipeline:     rewrite.NewPipeline(verifier.Filter()),
			CacheEnabled: true,
		}),
	}
	run := func(p *proxy.Proxy, id string) (time.Duration, error) {
		c, err := NewDVMClient(p, id, nil, nil)
		if err != nil {
			return 0, err
		}
		start := telemetry.StartTimer()
		if thrown, err := c.VM.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
			return 0, runFail(spec.Name+" ("+id+")", thrown, err)
		}
		return start.Elapsed(), nil
	}
	for _, p := range proxies {
		if _, err := run(p, "warm"); err != nil { // fills the cache
			return 0, err
		}
	}
	// Best of at least three fresh clients a side, and of up to fifteen
	// while they are cheap, the two sides taking turns: run-to-run jitter
	// at millisecond scale otherwise swamps the injected-check delta,
	// which is tens of microseconds on a small app, and a slow spell on
	// the host must fall on both sides alike.
	var best [2]time.Duration
	var total time.Duration
	for i := 0; i < 3 || (i < 15 && total < 100*time.Millisecond); i++ {
		for side, p := range proxies {
			d, err := run(p, fmt.Sprintf("measure-%d", i))
			if err != nil {
				return 0, err
			}
			total += d
			if best[side] == 0 || d < best[side] {
				best[side] = d
			}
		}
	}
	return max(best[1]-best[0], 0), nil
}

// ---------------------------------------------------------------------------
// Figure 8: static vs dynamic verifier checks.

// Fig8Row is one line of the paper's Figure 8 table.
type Fig8Row struct {
	Name          string
	StaticChecks  int
	DynamicChecks int64 // link checks executed by the client at run time
}

// Fig8 counts the checks the verification service performed statically
// on the server against the deferred checks the client executed.
func Fig8(specs []workload.Spec) ([]Fig8Row, string, error) {
	rows := make([]Fig8Row, 0, len(specs))
	for _, spec := range specs {
		app, err := workload.Generate(spec)
		if err != nil {
			return nil, "", err
		}
		// Static counts, straight from the service.
		var census verifier.Census
		transformed := make(map[string][]byte, len(app.Classes))
		for name, data := range app.Classes {
			cf, err := classfile.Parse(data)
			if err != nil {
				return nil, "", err
			}
			res, err := verifier.Verify(cf)
			if err != nil {
				return nil, "", fmt.Errorf("eval: %s/%s: %w", spec.Name, name, err)
			}
			if err := verifier.Instrument(cf, res); err != nil {
				return nil, "", err
			}
			census.Add(res.Census)
			out, err := cf.Encode()
			if err != nil {
				return nil, "", err
			}
			transformed[name] = out
		}
		// Dynamic counts from an actual client run of the self-verifying
		// application.
		vm, err := jvm.New(jvm.MapLoader(transformed), nil)
		if err != nil {
			return nil, "", err
		}
		if thrown, err := vm.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
			return nil, "", runFail(spec.Name, thrown, err)
		}
		rows = append(rows, Fig8Row{
			Name:          spec.Name,
			StaticChecks:  census.Static(),
			DynamicChecks: vm.Stats.LinkChecks,
		})
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Name, fmt.Sprint(r.StaticChecks), fmt.Sprint(r.DynamicChecks)})
	}
	return rows, table([]string{"Benchmark", "Static Checks", "Dynamic Checks"}, cells), nil
}
