package optimize_test

import (
	"bytes"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/optimize"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

// buildApp builds app/A: main calls hot(); cold() and coldHeavy() exist
// but are never called on the profiled run. coldInst is an instance
// method with field access (exercises the receiver-conversion path).
func buildApp(t *testing.T) map[string][]byte {
	t.Helper()
	b := classgen.NewClass("app/A", "java/lang/Object")
	b.Field(classfile.AccPrivate, "v", "I")
	b.DefaultInit()

	hot := b.Method(classfile.AccPublic|classfile.AccStatic, "hot", "()I")
	hot.IConst(11).IReturn()

	cold := b.Method(classfile.AccPublic|classfile.AccStatic, "cold", "(I)I")
	cold.ILoad(0).IConst(3).IMul().IReturn()

	heavy := b.Method(classfile.AccPublic|classfile.AccStatic, "coldHeavy", "()Ljava/lang/String;")
	heavy.LdcString("a long constant string that adds bulk to the cold unit ")
	heavy.LdcString("and another one for good measure")
	heavy.InvokeVirtual("java/lang/String", "concat", "(Ljava/lang/String;)Ljava/lang/String;")
	heavy.AReturn()

	coldInst := b.Method(classfile.AccPublic, "coldInst", "(I)I")
	coldInst.ALoad(0).ILoad(1).PutField("app/A", "v", "I")
	coldInst.ALoad(0).GetField("app/A", "v", "I")
	coldInst.IConst(1).IAdd().IReturn()

	mn := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	mn.InvokeStatic("app/A", "hot", "()I")
	mn.Pop()
	mn.Return()

	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"app/A": data}
}

// profileRun executes the app with first-use instrumentation and returns
// the collected profile.
func profileRun(t *testing.T, classes map[string][]byte) *optimize.Profile {
	t.Helper()
	instrumented := map[string][]byte{}
	for name, data := range classes {
		out, err := rewrite.NewPipeline(monitor.Filter(monitor.Config{FirstUse: true})).Process(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		instrumented[name] = out
	}
	vm, err := jvm.New(jvm.MapLoader(instrumented), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	coll := monitor.NewCollector()
	session := monitor.Attach(vm, coll, monitor.ClientInfo{})
	if thrown, err := vm.RunMain("app/A", nil); err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	return optimize.FromFirstUse(coll.FirstUseOrder(session))
}

func TestRepartitionSplitsColdMethods(t *testing.T) {
	classes := buildApp(t)
	prof := profileRun(t, classes)
	if !prof.HotMethod("app/A", "hot") || prof.HotMethod("app/A", "cold") {
		t.Fatalf("profile wrong: %+v", prof.Hot)
	}
	out, rep, err := optimize.Repartition(classes, prof)
	if err != nil {
		t.Fatalf("Repartition: %v", err)
	}
	if rep.Split != 1 || rep.ColdMethods != 3 {
		t.Errorf("report = %+v", rep)
	}
	if _, ok := out["app/A$cold"]; !ok {
		t.Fatal("no cold companion emitted")
	}
	if len(out["app/A"]) >= len(classes["app/A"]) {
		t.Errorf("carrier did not shrink: %d -> %d", len(classes["app/A"]), len(out["app/A"]))
	}
	// Both outputs must re-verify as ordinary classes.
	for name, data := range out {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := verifier.Verify(cf); err != nil {
			t.Errorf("%s fails verification after repartitioning: %v", name, err)
		}
	}
}

func TestRepartitionedAppRunsIdentically(t *testing.T) {
	classes := buildApp(t)
	prof := profileRun(t, classes)
	out, _, err := optimize.Repartition(classes, prof)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := jvm.New(jvm.MapLoader(out), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	// Hot path: cold companion must NOT load.
	if thrown, err := vm.RunMain("app/A", nil); err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if vm.LoadedClass("app/A$cold") != nil {
		t.Fatal("cold unit loaded although only hot methods ran")
	}

	// Calling a cold static method triggers the lazy load and forwards.
	v, thrown, err := vm.MainThread().InvokeByName("app/A", "cold", "(I)I", []jvm.Value{jvm.IntV(7)})
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if v.Int() != 21 {
		t.Errorf("cold(7) = %d, want 21", v.Int())
	}
	if vm.LoadedClass("app/A$cold") == nil {
		t.Fatal("cold unit not loaded on demand")
	}

	// Cold instance method with field access still works through the
	// static-with-receiver conversion.
	c, err := vm.Class("app/A")
	if err != nil {
		t.Fatal(err)
	}
	obj := vm.NewInstance(c)
	v, thrown, err = vm.MainThread().InvokeByName("app/A", "coldInst", "(I)I",
		[]jvm.Value{jvm.RefV(obj), jvm.IntV(41)})
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if v.Int() != 42 {
		t.Errorf("coldInst(41) = %d, want 42", v.Int())
	}
	// String-returning cold method.
	v, thrown, err = vm.MainThread().InvokeByName("app/A", "coldHeavy", "()Ljava/lang/String;", nil)
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if got := jvm.GoString(v.Ref()); got == "" || got[0] != 'a' {
		t.Errorf("coldHeavy = %q", got)
	}
}

func TestRepartitionWithoutColdMethodsPassesThrough(t *testing.T) {
	classes := buildApp(t)
	// Everything hot.
	prof := optimize.NewProfile()
	for _, m := range []string{"hot", "cold", "coldHeavy", "coldInst"} {
		prof.Hot["app/A."+m] = true
	}
	out, rep, err := optimize.Repartition(classes, prof)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Split != 0 {
		t.Errorf("split = %d, want 0", rep.Split)
	}
	if !bytes.Equal(out["app/A"], classes["app/A"]) {
		t.Error("fully hot class was modified")
	}
}

func TestFromFirstUseParsesDescriptors(t *testing.T) {
	p := optimize.FromFirstUse([]string{
		"app/X.main ([Ljava/lang/String;)V",
		"app/X.go",
	})
	if !p.HotMethod("app/X", "main") || !p.HotMethod("app/X", "go") {
		t.Errorf("profile = %+v", p.Hot)
	}
}

// Regression: FromFirstUse used to drop arrival order entirely and map a
// malformed (leading-space) entry to Hot[""]. The prefetch successor
// graph depends on edge order, so Order must be the deduplicated arrival
// sequence and malformed entries must not corrupt it.
func TestFromFirstUsePreservesOrderAndDedups(t *testing.T) {
	p := optimize.FromFirstUse([]string{
		"app/A.init ()V",
		"app/B.run",
		"app/A.init ()V",  // duplicate: keeps first position
		" app/C.go ()V",   // leading space: trimmed, not Hot[""]
		"   ",             // malformed: skipped
		"",                // malformed: skipped
		"app/B.run (JJ)V", // duplicate with different descriptor
		"app/D.x",
	})
	want := []string{"app/A.init", "app/B.run", "app/C.go", "app/D.x"}
	if len(p.Order) != len(want) {
		t.Fatalf("Order = %v, want %v", p.Order, want)
	}
	for i := range want {
		if p.Order[i] != want[i] {
			t.Fatalf("Order = %v, want %v", p.Order, want)
		}
	}
	if p.Hot[""] {
		t.Error("malformed entry produced Hot[\"\"]")
	}
	if len(p.Hot) != len(want) {
		t.Errorf("Hot has %d entries, want %d: %v", len(p.Hot), len(want), p.Hot)
	}
}

func TestClassOrderCollapsesTransitions(t *testing.T) {
	p := optimize.FromFirstUse([]string{
		"app/A.init", "app/A.run", "app/B.go", "app/B.stop", "app/A.end", "app/C.x",
	})
	got := p.ClassOrder()
	want := []string{"app/A", "app/B", "app/A", "app/C"}
	if len(got) != len(want) {
		t.Fatalf("ClassOrder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClassOrder = %v, want %v", got, want)
		}
	}
}

func TestCopyConstantAllTags(t *testing.T) {
	src := classfile.NewConstPool()
	dst := classfile.NewConstPool()
	idxs := []uint16{
		src.AddUtf8("hello"),
		src.AddInteger(42),
		src.AddFloat(1.5),
		src.AddLong(1 << 40),
		src.AddDouble(2.5),
		src.AddClass("a/B"),
		src.AddString("text"),
		src.AddNameAndType("f", "I"),
		src.AddFieldref("a/B", "f", "I"),
		src.AddMethodref("a/B", "m", "()V"),
		src.AddInterfaceMethodref("a/I", "n", "()V"),
	}
	for _, idx := range idxs {
		ni, err := optimize.CopyConstant(src, dst, idx)
		if err != nil {
			t.Errorf("copy of %d: %v", idx, err)
			continue
		}
		se, _ := src.Entry(idx)
		de, err := dst.Entry(ni)
		if err != nil || de.Tag != se.Tag {
			t.Errorf("copied tag mismatch for %d: %v vs %v", idx, de.Tag, se.Tag)
		}
	}
	// Copying the same member ref twice must intern, not duplicate.
	before := dst.Size()
	if _, err := optimize.CopyConstant(src, dst, idxs[9]); err != nil {
		t.Fatal(err)
	}
	if dst.Size() != before {
		t.Error("second copy grew the destination pool")
	}
}
