package proxy_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/compiler"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
	"dvm/internal/workload"
)

// origin builds a small two-class application origin.
func origin(t *testing.T) proxy.MapOrigin {
	t.Helper()
	mn := classgen.NewClass("app/Main", "java/lang/Object")
	run := mn.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	run.InvokeStatic("app/Dep", "val", "()I")
	run.IConst(2).IMul()
	run.IReturn()
	dep := classgen.NewClass("app/Dep", "java/lang/Object")
	val := dep.Method(classfile.AccPublic|classfile.AccStatic, "val", "()I")
	val.IConst(21).IReturn()

	mb, err := mn.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	db, err := dep.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	return proxy.MapOrigin{"app/Main": mb, "app/Dep": db}
}

func fullPipeline(t *testing.T) *rewrite.Pipeline {
	t.Helper()
	pol, err := security.ParsePolicy([]byte(`
<policy>
  <domain id="apps"><grant permission="*" target="*"/></domain>
  <assign domain="apps" codebase="app/*"/>
  <operation permission="call.val" class="app/Dep" method="val"/>
</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	return rewrite.NewPipeline(
		verifier.Filter(),
		security.Filter(pol),
		monitor.Filter(monitor.Config{Methods: true, Skip: monitor.SkipInitializers}),
		compiler.Filter(),
	)
}

func TestProxyEndToEndExecution(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: fullPipeline(t), CacheEnabled: true})
	vm, err := jvm.New(p.Loader("client-1", compiler.ArchDVM), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	srv := security.NewServer(mustPolicy(t))
	vm.CheckAccess = security.NewManager(srv, "apps")
	coll := monitor.NewCollector()
	monitor.Attach(vm, coll, monitor.ClientInfo{User: "u", Arch: compiler.ArchDVM})

	v, thrown, err := vm.MainThread().InvokeByName("app/Main", "run", "()I", nil)
	if err != nil {
		t.Fatal(err)
	}
	if thrown != nil {
		t.Fatalf("thrown: %s", jvm.DescribeThrowable(thrown))
	}
	if v.Int() != 42 {
		t.Errorf("run = %d, want 42", v.Int())
	}
	// All dynamic components fired.
	if vm.Stats.SecurityChecks == 0 {
		t.Error("no security checks executed")
	}
	if vm.Stats.AuditEvents == 0 {
		t.Error("no audit events")
	}
	st := p.Stats()
	if st.Requests < 2 || st.OriginFetches != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func mustPolicy(t *testing.T) *security.Policy {
	t.Helper()
	pol, err := security.ParsePolicy([]byte(`
<policy>
  <domain id="apps"><grant permission="*" target="*"/></domain>
  <assign domain="apps" codebase="app/*"/>
</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestProxyCacheSharedAcrossClients(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true})
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c1", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c2", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CacheHits != 1 || st.OriginFetches != 1 {
		t.Errorf("hits=%d fetches=%d, want 1/1", st.CacheHits, st.OriginFetches)
	}
	// Different arch is a different cache entry (compiled output differs).
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c3", Arch: "x86-jdk", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().OriginFetches; got != 2 {
		t.Errorf("arch-keyed fetches = %d, want 2", got)
	}
}

func TestProxyCacheDisabled(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter())})
	for i := 0; i < 3; i++ {
		if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.CacheHits != 0 || st.OriginFetches != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyCacheEviction(t *testing.T) {
	org := origin(t)
	budget := len(org["app/Main"]) // roughly one transformed class
	p := proxy.New(org, proxy.Config{
		Pipeline: rewrite.NewPipeline(), CacheEnabled: true, CacheBudget: budget,
	})
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Main"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if entries := p.CacheSnapshot(0, nil); len(entries) >= 2 {
		t.Errorf("cache holds %d entries over budget", len(entries))
	}
}

func TestRejectedClassBecomesVerifyError(t *testing.T) {
	// A structurally valid but type-unsafe class (float where int
	// expected) must be replaced, not dropped.
	bad := classgen.NewClass("app/Bad", "java/lang/Object")
	m := bad.Method(classfile.AccPublic|classfile.AccStatic, "f", "()I")
	m.FConst(1)
	m.IReturn()
	data, err := bad.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	p := proxy.New(proxy.MapOrigin{"app/Bad": data},
		proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter())})
	out, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Bad"})
	if err != nil {
		t.Fatalf("rejection must not be a transport error: %v", err)
	}
	if p.Stats().Rejections != 1 {
		t.Error("rejection not counted")
	}
	vm, err := jvm.New(jvm.MapLoader{"app/Bad": out.Data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	thrown, err := vm.RunMain("app/Bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/VerifyError" {
		t.Errorf("thrown = %v, want VerifyError", jvm.DescribeThrowable(thrown))
	}
}

// TestNearFullPoolServedAsRejected: a valid class whose constant pool
// leaves the services no room is answered with a replacement class that
// raises VerifyError saying so — not with a panic on the flight goroutine,
// which nothing recovered and which ended the proxy process — and the
// proxy goes on serving.
func TestNearFullPoolServedAsRejected(t *testing.T) {
	org := origin(t)
	for class, count := range map[string]int{"app/Main": 65530, "app/Dep": 65535} {
		padded, err := workload.PadPool(org[class], count)
		if err != nil {
			t.Fatal(err)
		}
		org["full/"+class] = padded
	}
	p := proxy.New(org, proxy.Config{Pipeline: fullPipeline(t)})
	for _, class := range []string{"full/app/Main", "full/app/Dep"} {
		var first []byte
		for run := 0; run < 2; run++ { // cache off: the pipeline runs both times
			res, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: class})
			if err != nil {
				t.Fatalf("%s: rejection must not be a transport error: %v", class, err)
			}
			if !res.Info.Rejected || !bytes.Contains(res.Data, []byte("constant pool overflow")) {
				t.Fatalf("%s: rejected=%v, want a replacement class naming the overflow", class, res.Info.Rejected)
			}
			if first == nil {
				first = res.Data
			} else if !bytes.Equal(first, res.Data) {
				t.Errorf("%s: two runs produced different replacement bytes", class)
			}
		}
		vm, err := jvm.New(jvm.MapLoader{class: first}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if thrown, err := vm.RunMain(class, nil); err != nil || thrown == nil || thrown.Class.Name != "java/lang/VerifyError" {
			t.Errorf("%s: thrown = %v (%v), want VerifyError", class, jvm.DescribeThrowable(thrown), err)
		}
	}
	if got := p.Stats().Rejections; got != 4 {
		t.Errorf("rejections counted = %d, want 4", got)
	}
	res, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"})
	if err != nil || res.Info.Rejected {
		t.Errorf("the unpadded class after the rejections: rejected=%v err=%v", res.Info.Rejected, err)
	}
}

func TestHTTPFrontEnd(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: fullPipeline(t), CacheEnabled: true})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	loader := proxy.HTTPLoader(ts.URL, "http-client", compiler.ArchDVM)
	vm, err := jvm.New(loader, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	srv := security.NewServer(mustPolicy(t))
	vm.CheckAccess = security.NewManager(srv, "apps")
	v, thrown, err := vm.MainThread().InvokeByName("app/Main", "run", "()I", nil)
	if err != nil {
		t.Fatal(err)
	}
	if thrown != nil {
		t.Fatalf("thrown: %s", jvm.DescribeThrowable(thrown))
	}
	if v.Int() != 42 {
		t.Errorf("run over HTTP = %d", v.Int())
	}
	// Missing class: 404.
	if _, err := loader.Load("app/Nope"); err == nil {
		t.Error("missing class did not error")
	}
}

func TestProxyConcurrentRequests(t *testing.T) {
	p := proxy.New(origin(t), proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "app/Main"
			if i%2 == 0 {
				name = "app/Dep"
			}
			if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: name}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := p.Stats().Requests; got != 64 {
		t.Errorf("requests = %d", got)
	}
}

func TestAuditTrail(t *testing.T) {
	var mu sync.Mutex
	var recs []proxy.RequestRecord
	p := proxy.New(origin(t), proxy.Config{
		Pipeline:     rewrite.NewPipeline(verifier.Filter()),
		CacheEnabled: true,
		OnAudit: func(r proxy.RequestRecord) {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		},
	})
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "alice", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "bob", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("audit records = %d", len(recs))
	}
	if recs[0].Client != "alice" || recs[0].CacheHit || recs[1].Client != "bob" || !recs[1].CacheHit {
		t.Errorf("records = %+v", recs)
	}
	if recs[0].ProxyTime <= 0 {
		t.Error("proxy processing time not recorded")
	}
}
