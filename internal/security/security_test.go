package security

import (
	"bytes"
	"strings"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
)

const testPolicyXML = `
<policy>
  <domain id="apps">
    <grant permission="property.get" target="*"/>
    <grant permission="file.open" target="/tmp/*"/>
    <grant permission="file.read" target="*"/>
    <grant permission="thread.setPriority"/>
  </domain>
  <domain id="untrusted">
    <grant permission="property.get" target="java.version"/>
  </domain>
  <assign domain="apps" codebase="app/*"/>
  <assign domain="untrusted" codebase="evil/*"/>
  <resource name="/etc/*" sid="system-files"/>
  <operation permission="file.open" class="java/io/FileInputStream" method="&lt;init&gt;" desc="(Ljava/lang/String;)V" target="arg"/>
  <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
  <operation permission="property.get" class="java/lang/System" method="getProperty" desc="(Ljava/lang/String;)Ljava/lang/String;" target="arg"/>
  <operation permission="thread.setPriority" class="java/lang/Thread" method="setPriority"/>
</policy>`

// ResourceSID resolves a target name to its resource security identifier,
// or "" if unmapped.
func (p *Policy) ResourceSID(name string) string {
	for _, r := range p.Resources {
		if matchPattern(r.Name, name) {
			return r.SID
		}
	}
	return ""
}

func testPolicy(t *testing.T) *Policy {
	t.Helper()
	p, err := ParsePolicy([]byte(testPolicyXML))
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	return p
}

func TestPolicyParseAndAccessMatrix(t *testing.T) {
	p := testPolicy(t)
	if len(p.Domains) != 2 || len(p.Operations) != 4 {
		t.Fatalf("domains=%d operations=%d", len(p.Domains), len(p.Operations))
	}
	cases := []struct {
		sid, perm, target string
		want              bool
	}{
		{"apps", "property.get", "user.name", true},
		{"apps", "file.open", "/tmp/x", true},
		{"apps", "file.open", "/etc/passwd", false},
		{"apps", "thread.setPriority", "", true},
		{"untrusted", "property.get", "java.version", true},
		{"untrusted", "property.get", "user.name", false},
		{"untrusted", "file.open", "/tmp/x", false},
		{"nonexistent", "property.get", "x", false},
	}
	for _, c := range cases {
		if got := p.Allowed(c.sid, c.perm, c.target); got != c.want {
			t.Errorf("Allowed(%s, %s, %s) = %v, want %v", c.sid, c.perm, c.target, got, c.want)
		}
	}
	if p.DomainFor("app/Main") != "apps" || p.DomainFor("evil/X") != "untrusted" || p.DomainFor("other/Y") != "" {
		t.Error("DomainFor mismatch")
	}
	if p.ResourceSID("/etc/passwd") != "system-files" || p.ResourceSID("/tmp/x") != "" {
		t.Error("ResourceSID mismatch")
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	p := testPolicy(t)
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePolicy(data)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(p2.Domains) != len(p.Domains) || len(p2.Operations) != len(p.Operations) ||
		len(p2.Assigns) != len(p.Assigns) || len(p2.Resources) != len(p.Resources) {
		t.Error("round trip lost entries")
	}
	if !p2.Allowed("apps", "file.open", "/tmp/y") {
		t.Error("round-tripped policy lost grants")
	}
}

func TestPolicyParseErrors(t *testing.T) {
	bad := []string{
		`<policy><domain/></policy>`,
		`<policy><domain id="a"/><domain id="a"/></policy>`,
		`<policy><assign domain="ghost" codebase="x/*"/></policy>`,
		`<policy><domain id="a"><grant/></domain></policy>`,
		`<policy><operation permission="p" class="c"/></policy>`,
		`<policy><operation permission="p" class="c" method="m" target="weird"/></policy>`,
		`not xml at all<`,
	}
	for _, s := range bad {
		if _, err := ParsePolicy([]byte(s)); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

// buildFileApp builds app/F with open(String) (FileInputStream ctor),
// openAndRead(String) and getProp(String).
func buildFileApp() *classgen.ClassBuilder {
	b := classgen.NewClass("app/F", "java/lang/Object")
	open := b.Method(classfile.AccPublic|classfile.AccStatic, "open", "(Ljava/lang/String;)V")
	open.NewDup("java/io/FileInputStream")
	open.ALoad(0)
	open.InvokeSpecial("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
	open.InvokeVirtual("java/io/FileInputStream", "close", "()V")
	open.Return()

	rd := b.Method(classfile.AccPublic|classfile.AccStatic, "openAndRead", "(Ljava/lang/String;)I")
	rd.NewDup("java/io/FileInputStream")
	rd.ALoad(0)
	rd.InvokeSpecial("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
	rd.AStore(1)
	rd.ALoad(1).InvokeVirtual("java/io/FileInputStream", "read", "()I")
	rd.IReturn()

	gp := b.Method(classfile.AccPublic|classfile.AccStatic, "getProp", "(Ljava/lang/String;)Ljava/lang/String;")
	gp.ALoad(0)
	gp.InvokeStatic("java/lang/System", "getProperty", "(Ljava/lang/String;)Ljava/lang/String;")
	gp.AReturn()
	return b
}

// dvmClient rewrites the class through the security filter and boots a
// client with an enforcement manager.
func dvmClient(t *testing.T, p *Policy, b *classgen.ClassBuilder, sid string) (*jvm.VM, *Manager, *Server) {
	t.Helper()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	ctx := rewrite.NewContext()
	out, err := rewrite.NewPipeline(Filter(p)).Process(data, ctx)
	if err != nil {
		t.Fatalf("security filter: %v", err)
	}
	if n, _ := ctx.Notes[NoteChecksInserted].(int); n == 0 {
		t.Fatal("no checks inserted")
	}
	cf, _ := classfile.Parse(out)
	vm, err := jvm.New(jvm.MapLoader{cf.Name(): out}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p)
	mgr := NewManager(srv, sid)
	vm.CheckAccess = mgr
	return vm, mgr, srv
}

func TestDVMEnforcementAllowsAndDenies(t *testing.T) {
	p := testPolicy(t)
	vm, _, _ := dvmClient(t, p, buildFileApp(), "apps")
	vm.VFS.Write("/tmp/ok", []byte("x"))
	vm.VFS.Write("/etc/secret", []byte("x"))

	// /tmp open allowed.
	_, thrown, err := vm.MainThread().InvokeByName("app/F", "open", "(Ljava/lang/String;)V",
		[]jvm.Value{jvm.RefV(vm.InternString("/tmp/ok"))})
	if err != nil {
		t.Fatal(err)
	}
	if thrown != nil {
		t.Fatalf("allowed open threw %s", jvm.DescribeThrowable(thrown))
	}
	// /etc open denied — with the *dynamic* target caught by the dup'd
	// argument.
	_, thrown, err = vm.MainThread().InvokeByName("app/F", "open", "(Ljava/lang/String;)V",
		[]jvm.Value{jvm.RefV(vm.InternString("/etc/secret"))})
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/SecurityException" {
		t.Fatalf("denied open: thrown = %v", jvm.DescribeThrowable(thrown))
	}
	if !strings.Contains(jvm.ThrowableMessage(thrown), "/etc/secret") {
		t.Errorf("denial message lacks dynamic target: %q", jvm.ThrowableMessage(thrown))
	}
}

func TestDVMChecksFileRead(t *testing.T) {
	// The DVM can impose checks on file *read* — the operation the JDK's
	// anticipated hooks cannot protect.
	p := testPolicy(t)
	vm, _, _ := dvmClient(t, p, buildFileApp(), "apps")
	vm.VFS.Write("/tmp/ok", []byte("A"))
	v, thrown, err := vm.MainThread().InvokeByName("app/F", "openAndRead", "(Ljava/lang/String;)I",
		[]jvm.Value{jvm.RefV(vm.InternString("/tmp/ok"))})
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if v.Int() != 'A' {
		t.Errorf("read = %d", v.Int())
	}
	if vm.Stats.SecurityChecks < 2 {
		t.Errorf("SecurityChecks = %d, want >= 2 (open + read)", vm.Stats.SecurityChecks)
	}

	// Deny file.read for untrusted and verify the read itself is blocked.
	denyRead, err := ParsePolicy([]byte(`
<policy>
  <domain id="apps">
    <grant permission="file.open" target="*"/>
  </domain>
  <assign domain="apps" codebase="app/*"/>
  <operation permission="file.open" class="java/io/FileInputStream" method="&lt;init&gt;" desc="(Ljava/lang/String;)V" target="arg"/>
  <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	vm2, _, _ := dvmClient(t, denyRead, buildFileApp(), "apps")
	vm2.VFS.Write("/tmp/ok", []byte("A"))
	_, thrown, err = vm2.MainThread().InvokeByName("app/F", "openAndRead", "(Ljava/lang/String;)I",
		[]jvm.Value{jvm.RefV(vm2.InternString("/tmp/ok"))})
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/SecurityException" {
		t.Fatalf("read not blocked: %v", jvm.DescribeThrowable(thrown))
	}
}

func TestManagerCacheAndDownload(t *testing.T) {
	p := testPolicy(t)
	srv := NewServer(p)
	downloads := 0
	srv.FetchDelay = func() { downloads++ }
	mgr := NewManager(srv, "apps")

	for i := 0; i < 10; i++ {
		if !mgr.allowed("property.get", "user.name") {
			t.Fatal("allowed check failed")
		}
	}
	if downloads != 1 {
		t.Errorf("domain downloaded %d times, want 1", downloads)
	}
	if mgr.CacheHits != 9 || mgr.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d", mgr.CacheHits, mgr.CacheMisses)
	}
}

func TestCacheInvalidationProtocol(t *testing.T) {
	p := testPolicy(t)
	srv := NewServer(p)
	mgr := NewManager(srv, "apps")
	if !mgr.allowed("file.open", "/tmp/a") {
		t.Fatal("initial policy should allow /tmp open")
	}
	// Tighten the policy centrally: no file.open for apps.
	p2, err := ParsePolicy([]byte(`
<policy>
  <domain id="apps">
    <grant permission="property.get" target="*"/>
  </domain>
  <assign domain="apps" codebase="app/*"/>
</policy>`))
	if err != nil {
		t.Fatal(err)
	}
	srv.UpdatePolicy(p2)
	if mgr.allowed("file.open", "/tmp/a") {
		t.Fatal("stale cached decision survived policy update")
	}
	if srv.Invalidations != 1 {
		t.Errorf("Invalidations = %d", srv.Invalidations)
	}
}

func TestStackIntrospectionBaseline(t *testing.T) {
	p := testPolicy(t)
	b := buildFileApp()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := jvm.New(jvm.MapLoader{"app/F": data}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	si := NewStackIntrospection(p)
	vm.BuiltinChecks = si
	vm.VFS.Write("/tmp/ok", []byte("Z"))
	vm.VFS.Write("/etc/secret", []byte("Z"))

	// Anticipated hook works: /etc open denied.
	_, thrown, err := vm.MainThread().InvokeByName("app/F", "open", "(Ljava/lang/String;)V",
		[]jvm.Value{jvm.RefV(vm.InternString("/etc/secret"))})
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/SecurityException" {
		t.Fatalf("monolithic open check missed: %v", jvm.DescribeThrowable(thrown))
	}
	// /tmp allowed.
	_, thrown, _ = vm.MainThread().InvokeByName("app/F", "open", "(Ljava/lang/String;)V",
		[]jvm.Value{jvm.RefV(vm.InternString("/tmp/ok"))})
	if thrown != nil {
		t.Fatalf("monolithic allowed open threw: %v", jvm.DescribeThrowable(thrown))
	}
	if si.Checks == 0 || si.FramesWalked == 0 {
		t.Error("introspection never walked the stack")
	}

	// The JDK limitation: once a handle is open, reads have NO hook, so
	// even a read-everything application is never stopped.
	denyEverything, _ := ParsePolicy([]byte(`
<policy>
  <domain id="apps">
    <grant permission="file.open" target="/tmp/*"/>
  </domain>
  <assign domain="apps" codebase="app/*"/>
</policy>`))
	vm2, err := jvm.New(jvm.MapLoader{"app/F": data}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm2.BuiltinChecks = NewStackIntrospection(denyEverything)
	vm2.VFS.Write("/tmp/ok", []byte("Z"))
	v, thrown, err := vm2.MainThread().InvokeByName("app/F", "openAndRead", "(Ljava/lang/String;)I",
		[]jvm.Value{jvm.RefV(vm2.InternString("/tmp/ok"))})
	if err != nil {
		t.Fatal(err)
	}
	if thrown != nil {
		t.Fatalf("unexpected: %v", jvm.DescribeThrowable(thrown))
	}
	if v.Int() != 'Z' {
		t.Errorf("read = %d", v.Int())
	}
	// The read happened with zero read checks — the monolithic gap.
}

func TestUntrustedDomainDeniedByDVM(t *testing.T) {
	p := testPolicy(t)
	b := classgen.NewClass("evil/E", "java/lang/Object")
	gp := b.Method(classfile.AccPublic|classfile.AccStatic, "snoop", "()Ljava/lang/String;")
	gp.LdcString("user.name")
	gp.InvokeStatic("java/lang/System", "getProperty", "(Ljava/lang/String;)Ljava/lang/String;")
	gp.AReturn()
	vm, _, _ := dvmClient(t, p, b, "untrusted")
	_, thrown, err := vm.MainThread().InvokeByName("evil/E", "snoop", "()Ljava/lang/String;", nil)
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/SecurityException" {
		t.Fatalf("untrusted property read not denied: %v", jvm.DescribeThrowable(thrown))
	}
	// But the allowed one works.
	b2 := classgen.NewClass("evil/E", "java/lang/Object")
	gp2 := b2.Method(classfile.AccPublic|classfile.AccStatic, "ok", "()Ljava/lang/String;")
	gp2.LdcString("java.version")
	gp2.InvokeStatic("java/lang/System", "getProperty", "(Ljava/lang/String;)Ljava/lang/String;")
	gp2.AReturn()
	vm2, _, _ := dvmClient(t, p, b2, "untrusted")
	v, thrown, err := vm2.MainThread().InvokeByName("evil/E", "ok", "()Ljava/lang/String;", nil)
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if jvm.GoString(v.Ref()) == "" {
		t.Error("allowed property read returned empty")
	}
}

func TestRewrittenClassStillVerifies(t *testing.T) {
	p := testPolicy(t)
	data, err := buildFileApp().BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := rewrite.NewPipeline(Filter(p)).Process(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := classfile.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	// max_stack must have been recomputed to cover the dup'd operands.
	m := cf.FindMethod("open", "(Ljava/lang/String;)V")
	code, err := cf.CodeOf(m)
	if err != nil {
		t.Fatal(err)
	}
	if code.MaxStack < 4 {
		t.Errorf("MaxStack = %d, expected >= 4 after dup/swap snippet", code.MaxStack)
	}
}
