package eval

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"dvm/internal/compiler"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
	"dvm/internal/security"
	"dvm/internal/workload"
)

// TestArchitecturesProduceIdenticalOutput is the behavioural-equivalence
// check behind every performance comparison: each benchmark must print
// exactly the same output under the monolithic architecture and under
// the full DVM pipeline (verifier + security + audit + compiler), both
// uncached and cached.
func TestArchitecturesProduceIdenticalOutput(t *testing.T) {
	policy := StandardPolicy()
	for _, spec := range ScaleSpecs(workload.Benchmarks(), 8) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			app, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			origin := proxy.MapOrigin(app.Classes)

			runMono := func() string {
				var out bytes.Buffer
				nullProxy := proxy.New(origin, proxy.Config{})
				mc, err := NewMonolithic(nullProxy.Loader("m", "x86-jdk"), policy, true, true)
				if err != nil {
					t.Fatal(err)
				}
				mc.VM.Stdout = &out
				if thrown, err := mc.VM.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
					t.Fatalf("monolithic: %v %v", err, jvm.DescribeThrowable(thrown))
				}
				return out.String()
			}
			p := proxy.New(origin, proxy.Config{
				Pipeline:     ServicePipeline(policy, true),
				CacheEnabled: true,
			})
			secServer := security.NewServer(policy)
			coll := monitor.NewCollector()
			runDVM := func(id string) string {
				c, err := NewDVMClient(p, id, secServer, coll)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				c.VM.Stdout = &out
				if thrown, err := c.VM.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
					t.Fatalf("dvm %s: %v %v", id, err, jvm.DescribeThrowable(thrown))
				}
				if c.VM.Stats.LinkChecks == 0 {
					t.Error("DVM client executed no link checks")
				}
				if c.VM.Stats.AuditEvents == 0 {
					t.Error("DVM client emitted no audit events")
				}
				return out.String()
			}

			mono := runMono()
			uncached := runDVM("first")
			cached := runDVM("second")
			if mono != uncached || mono != cached {
				t.Errorf("outputs differ:\n mono    %q\n uncached %q\n cached   %q", mono, uncached, cached)
			}
			if coll.EventCount() == 0 {
				t.Error("console collected no events")
			}
		})
	}
}

// TestFullDistributedDeploymentOverHTTP wires every network service the
// system has — proxy, administration console, security server — over
// real HTTP and runs a client against them, including a live central
// policy update.
func TestFullDistributedDeploymentOverHTTP(t *testing.T) {
	policy := StandardPolicy()
	// Instantdb: its TPC-A kernel performs Hashtable.put, which the
	// standard policy maps to a checked operation.
	spec := ScaleSpecs(workload.Benchmarks(), 8)[3]
	app, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The three central services.
	p := proxy.New(proxy.MapOrigin(app.Classes), proxy.Config{
		Pipeline:     ServicePipeline(policy, true),
		CacheEnabled: true,
	})
	proxySrv := httptest.NewServer(p.Handler())
	defer proxySrv.Close()
	coll := monitor.NewCollector()
	consoleSrv := httptest.NewServer(coll.Handler())
	defer consoleSrv.Close()
	vs := security.NewVersionedServer(security.NewServer(policy))
	secSrv := httptest.NewServer(vs.Handler())
	defer secSrv.Close()

	// The client, wired to all three over the network.
	vm, err := jvm.New(proxy.HTTPLoader(proxySrv.URL, "it-client", compiler.ArchDVM), nil)
	if err != nil {
		t.Fatal(err)
	}
	rm := security.NewRemoteManagerWith(secSrv.URL, "apps", security.RemoteOptions{})
	defer rm.Close()
	vm.CheckAccess = rm.Manager
	rs, err := monitor.AttachHTTPWith(vm, consoleSrv.URL, monitor.ClientInfo{User: "it"}, 32, resilience.Policy{})
	if err != nil {
		t.Fatal(err)
	}

	if thrown, err := vm.RunMain(spec.MainClass(), nil); err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	rs.Close()
	if rs.Err() != nil {
		t.Fatalf("audit delivery: %v", rs.Err())
	}
	if coll.EventCount() == 0 {
		t.Error("no events reached the console")
	}
	if vm.Stats.SecurityChecks == 0 {
		t.Error("no security checks executed")
	}
	if p.Stats().Requests == 0 {
		t.Error("proxy served nothing")
	}
}
