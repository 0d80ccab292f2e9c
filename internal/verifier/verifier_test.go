package verifier

import (
	"bytes"
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

func goodClass() *classgen.ClassBuilder {
	b := classgen.NewClass("app/Good", "java/lang/Object")
	b.Field(classfile.AccPrivate, "x", "I")
	b.DefaultInit()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "fib", "(I)I")
	base := m.NewLabel()
	m.ILoad(0).IConst(2).Branch(bytecode.IfIcmplt, base)
	m.ILoad(0).IConst(1).ISub()
	m.InvokeStatic("app/Good", "fib", "(I)I")
	m.ILoad(0).IConst(2).ISub()
	m.InvokeStatic("app/Good", "fib", "(I)I")
	m.IAdd().IReturn()
	m.Mark(base)
	m.ILoad(0).IReturn()
	return b
}

func mustVerify(t *testing.T, b *classgen.ClassBuilder) *Result {
	t.Helper()
	cf := b.MustBuild()
	res, err := Verify(cf)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return res
}

func TestVerifyAcceptsGoodClass(t *testing.T) {
	res := mustVerify(t, goodClass())
	if res.ClassName != "app/Good" {
		t.Errorf("ClassName = %s", res.ClassName)
	}
	if res.Census.Phase1 == 0 || res.Census.Phase2 == 0 || res.Census.Phase3 == 0 {
		t.Errorf("census has empty phases: %+v", res.Census)
	}
	// All references are to self or bootstrap classes: no assumptions.
	if len(res.Assumptions) != 0 {
		t.Errorf("unexpected assumptions: %v", res.Assumptions)
	}
}

func TestVerifyAcceptsRuntimeImage(t *testing.T) {
	// Every class the JVM bootstrap generates must pass its own verifier.
	vm, err := jvm.New(jvm.MapLoader{}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range vm.LoadedClassNames() {
		c := vm.LoadedClass(name)
		if c.File == nil {
			continue // array classes
		}
		if _, err := Verify(c.File); err != nil {
			t.Errorf("runtime class %s fails verification: %v", name, err)
		}
	}
}

func TestPhase3CountsScaleWithCode(t *testing.T) {
	small := mustVerify(t, goodClass())
	big := classgen.NewClass("app/Big", "java/lang/Object")
	m := big.Method(classfile.AccPublic|classfile.AccStatic, "f", "()I")
	m.IConst(0)
	for i := 0; i < 500; i++ {
		m.IConst(int32(i)).IAdd()
	}
	m.IReturn()
	bres := mustVerify(t, big)
	if bres.Census.Phase3 <= small.Census.Phase3 {
		t.Errorf("phase3 checks did not scale: big=%d small=%d", bres.Census.Phase3, small.Census.Phase3)
	}
}

// corrupt builds the good class and hands the bytes to a mutator.
func corrupt(t *testing.T, mutate func(cf *classfile.ClassFile)) error {
	t.Helper()
	cf := goodClass().MustBuild()
	mutate(cf)
	_, err := Verify(cf)
	return err
}

func TestPhase1Rejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(cf *classfile.ClassFile)
	}{
		{"final+abstract class", func(cf *classfile.ClassFile) {
			cf.AccessFlags |= classfile.AccFinal | classfile.AccAbstract
		}},
		{"field with bad descriptor", func(cf *classfile.ClassFile) {
			cf.Fields[0].DescriptorIndex = cf.Pool.AddUtf8("Q")
		}},
		{"duplicate method", func(cf *classfile.ClassFile) {
			cf.Methods = append(cf.Methods, cf.Methods[0])
		}},
		{"method without code", func(cf *classfile.ClassFile) {
			cf.Methods[0].Attributes = nil
		}},
		{"constant value type mismatch", func(cf *classfile.ClassFile) {
			idx := cf.Pool.AddString("nope")
			cf.Fields[0].AccessFlags |= classfile.AccStatic
			cf.Fields[0].Attributes = append(cf.Fields[0].Attributes, &classfile.Attribute{
				NameIndex: cf.Pool.AddUtf8(classfile.AttrConstantValue),
				Info:      []byte{byte(idx >> 8), byte(idx)},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := corrupt(t, tc.mutate)
			if err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
			var ve *Error
			if !asVerifierError(err, &ve) || ve.Phase != 1 {
				t.Errorf("error = %v, want phase 1", err)
			}
		})
	}
}

func asVerifierError(err error, out **Error) bool {
	ve, ok := err.(*Error)
	if ok {
		*out = ve
	}
	return ok
}

func setBytecode(t *testing.T, cf *classfile.ClassFile, name string, raw []byte, maxStack, maxLocals uint16) {
	t.Helper()
	m := cf.FindMethod(name, methodDescOf(cf, name))
	if m == nil {
		t.Fatalf("method %s not found", name)
	}
	code, err := cf.CodeOf(m)
	if err != nil {
		t.Fatal(err)
	}
	code.Bytecode = raw
	code.MaxStack = maxStack
	code.MaxLocals = maxLocals
	code.Handlers = nil
	if err := cf.SetCode(m, code); err != nil {
		t.Fatal(err)
	}
}

func methodDescOf(cf *classfile.ClassFile, name string) string {
	for _, m := range cf.Methods {
		if cf.MemberName(m) == name {
			return cf.MemberDescriptor(m)
		}
	}
	return ""
}

func TestPhase2Rejections(t *testing.T) {
	run := func(name string, raw []byte, maxStack, maxLocals uint16) *Error {
		t.Helper()
		cf := goodClass().MustBuild()
		setBytecode(t, cf, "fib", raw, maxStack, maxLocals)
		_, err := Verify(cf)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		var ve *Error
		if !asVerifierError(err, &ve) {
			t.Fatalf("%s: error = %v", name, err)
		}
		return ve
	}
	// Unassigned opcode.
	if ve := run("bad opcode", []byte{0xba}, 1, 1); ve.Phase != 2 {
		t.Errorf("bad opcode: phase %d", ve.Phase)
	}
	// Branch out of range.
	if ve := run("branch oob", []byte{byte(bytecode.Goto), 0x7F, 0x00, byte(bytecode.Return)}, 1, 1); ve.Phase != 2 {
		t.Errorf("branch oob: phase %d", ve.Phase)
	}
	// Local out of range.
	if ve := run("local oob", []byte{byte(bytecode.Iload), 60, byte(bytecode.Ireturn)}, 1, 1); ve.Phase != 2 {
		t.Errorf("local oob: phase %d", ve.Phase)
	}
	// ldc of a Class constant (illegal in this era).
	cf := goodClass().MustBuild()
	clsIdx := cf.Pool.AddClass("app/Good")
	if clsIdx > 0xFF {
		t.Skip("pool too large for ldc test")
	}
	setBytecode(t, cf, "fib", []byte{byte(bytecode.Ldc), byte(clsIdx), byte(bytecode.Ireturn)}, 1, 1)
	_, err := Verify(cf)
	var ve *Error
	if err == nil || !asVerifierError(err, &ve) || ve.Phase != 2 {
		t.Errorf("ldc Class: %v", err)
	}
}

func TestPhase3Rejections(t *testing.T) {
	run := func(name string, raw []byte, maxStack, maxLocals uint16) *Error {
		t.Helper()
		cf := goodClass().MustBuild()
		setBytecode(t, cf, "fib", raw, maxStack, maxLocals)
		_, err := Verify(cf)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		var ve *Error
		if !asVerifierError(err, &ve) {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
		return ve
	}
	cases := []struct {
		name      string
		raw       []byte
		maxStack  uint16
		maxLocals uint16
	}{
		// iadd on empty stack -> underflow.
		{"stack underflow", []byte{byte(bytecode.Iadd), byte(bytecode.Ireturn)}, 2, 1},
		// float where int expected.
		{"kind mismatch", []byte{byte(bytecode.Fconst1), byte(bytecode.Ireturn)}, 1, 1},
		// areturn from int method.
		{"wrong return", []byte{byte(bytecode.AconstNull), byte(bytecode.Areturn)}, 1, 1},
		// push beyond max_stack.
		{"stack overflow", []byte{byte(bytecode.Iconst0), byte(bytecode.Iconst0), byte(bytecode.Iconst0), byte(bytecode.Pop), byte(bytecode.Pop), byte(bytecode.Pop), byte(bytecode.Iconst0), byte(bytecode.Ireturn)}, 2, 1},
		// read uninitialized local 0? locals[0] is int param; use local 0 as ref.
		{"local kind mismatch", []byte{byte(bytecode.Aload0), byte(bytecode.Areturn)}, 1, 1},
		// fall off the end.
		{"fall off end", []byte{byte(bytecode.Iconst0), byte(bytecode.Pop)}, 1, 1},
		// inconsistent stack at join: loop where one path pushes.
		{"join mismatch", []byte{
			byte(bytecode.Iload0),           // 0
			byte(bytecode.Ifeq), 0x00, 0x04, // 1 -> 5
			byte(bytecode.Iconst0), // 4: push
			byte(bytecode.Iconst0), // 5: join with differing heights
			byte(bytecode.Ireturn), // 6
		}, 4, 1},
		// dup of long half.
		{"dup wide", []byte{byte(bytecode.Lconst0), byte(bytecode.Dup), byte(bytecode.Pop), byte(bytecode.Pop), byte(bytecode.Pop), byte(bytecode.Iconst0), byte(bytecode.Ireturn)}, 6, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ve := run(tc.name, tc.raw, tc.maxStack, tc.maxLocals)
			if ve.Phase != 3 {
				t.Errorf("phase = %d, want 3 (%s)", ve.Phase, ve.Msg)
			}
		})
	}
}

func TestUninitializedObjectRules(t *testing.T) {
	// Using a new'd object before <init> must be rejected.
	b := classgen.NewClass("app/U", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()I")
	m.New("java/lang/Object")
	m.InvokeVirtual("java/lang/Object", "hashCode", "()I") // before <init>!
	m.IReturn()
	cf := b.MustBuild()
	_, err := Verify(cf)
	if err == nil || !strings.Contains(err.Error(), "uninitialized") {
		t.Errorf("err = %v, want uninitialized-object rejection", err)
	}

	// Constructor returning without super-call must be rejected.
	b2 := classgen.NewClass("app/U2", "java/lang/Object")
	init := b2.Method(classfile.AccPublic, "<init>", "()V")
	init.Return()
	cf2 := b2.MustBuild()
	_, err = Verify(cf2)
	if err == nil || !strings.Contains(err.Error(), "super") {
		t.Errorf("err = %v, want missing-super rejection", err)
	}
}

func TestAssumptionCollection(t *testing.T) {
	b := classgen.NewClass("app/Uses", "app/Base")
	b.AddInterface("app/Iface")
	b.DefaultInit()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "go", "()I")
	m.GetStatic("app/Other", "field", "I")
	m.InvokeStatic("app/Helper", "help", "(I)I")
	m.IReturn()
	m2 := b.Method(classfile.AccPublic|classfile.AccStatic, "go2", "()V")
	m2.New("app/Thing")
	m2.Pop()
	m2.Return()

	res := mustVerify(t, b)
	byKind := map[AssumptionKind][]Assumption{}
	for _, a := range res.Assumptions {
		byKind[a.Kind] = append(byKind[a.Kind], a)
	}
	if len(byKind[AssumeAssignable]) != 2 {
		t.Errorf("assignable assumptions = %v", byKind[AssumeAssignable])
	}
	if len(byKind[AssumeField]) != 1 || byKind[AssumeField][0].Class != "app/Other" {
		t.Errorf("field assumptions = %v", byKind[AssumeField])
	}
	// app/Thing existence is scoped to go2; DefaultInit's super call is
	// an app/Base method assumption scoped to <init>.
	foundThing := false
	for _, a := range byKind[AssumeExists] {
		if a.Class == "app/Thing" && a.Scope == "go2 ()V" {
			foundThing = true
		}
	}
	if !foundThing {
		t.Errorf("missing scoped existence assumption: %v", byKind[AssumeExists])
	}
	// Bootstrap references (java/*) must not create assumptions.
	for _, a := range res.Assumptions {
		if strings.HasPrefix(a.Class, "java/") {
			t.Errorf("bootstrap assumption leaked: %v", a)
		}
	}
}

// buildDependent builds app/Main referencing app/Dep.value and
// app/Dep.mul, plus the matching app/Dep.
func buildDependent(t *testing.T) (mainBytes, depBytes []byte) {
	t.Helper()
	dep := classgen.NewClass("app/Dep", "java/lang/Object")
	dep.Field(classfile.AccPublic|classfile.AccStatic, "value", "I")
	cl := dep.Method(classfile.AccStatic, "<clinit>", "()V")
	cl.IConst(21).PutStatic("app/Dep", "value", "I")
	cl.Return()
	mul := dep.Method(classfile.AccPublic|classfile.AccStatic, "mul", "(I)I")
	mul.ILoad(0).IConst(2).IMul().IReturn()

	mn := classgen.NewClass("app/Main", "java/lang/Object")
	run := mn.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	run.GetStatic("app/Dep", "value", "I")
	run.InvokeStatic("app/Dep", "mul", "(I)I")
	run.IReturn()
	// A second method referencing a class that does NOT exist; it is never
	// called, so lazy checking must not fail the program.
	ghost := mn.Method(classfile.AccPublic|classfile.AccStatic, "ghost", "()V")
	ghost.GetStatic("app/Missing", "f", "I")
	ghost.Pop()
	ghost.Return()

	var err error
	mainBytes, err = mn.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	depBytes, err = dep.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	return mainBytes, depBytes
}

func TestSelfVerifyingApplicationEndToEnd(t *testing.T) {
	mainBytes, depBytes := buildDependent(t)

	// Static service: verify + instrument app/Main.
	cf, err := classfile.Parse(mainBytes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Verify(cf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Instrument(cf, res); err != nil {
		t.Fatal(err)
	}
	if res.Census.DynamicInjected == 0 {
		t.Fatal("no dynamic checks injected")
	}
	rewritten, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The rewritten class must itself re-verify (monolithic clients
	// subject it to redundant verification).
	cf2, err := classfile.Parse(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(cf2); err != nil {
		t.Fatalf("rewritten class fails re-verification: %v", err)
	}

	// Client executes the self-verifying app.
	vm, err := jvm.New(jvm.MapLoader{"app/Main": rewritten, "app/Dep": depBytes}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
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
	if vm.Stats.LinkChecks == 0 {
		t.Error("no dynamic link checks executed")
	}
	// Lazy scheme: ghost() was never invoked, so app/Missing was never
	// demanded and nothing failed.
	if vm.LoadedClass("app/Missing") != nil {
		t.Error("lazy checking violated: app/Missing was loaded")
	}

	// Calling ghost() now must raise the link error through the normal
	// exception mechanism.
	_, thrown, err = vm.MainThread().InvokeByName("app/Main", "ghost", "()V", nil)
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/NoClassDefFoundError" {
		t.Errorf("ghost thrown = %v", jvm.DescribeThrowable(thrown))
	}
}

func TestInjectedChecksRunOnce(t *testing.T) {
	mainBytes, depBytes := buildDependent(t)
	cf, _ := classfile.Parse(mainBytes)
	res, err := Verify(cf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Instrument(cf, res); err != nil {
		t.Fatal(err)
	}
	rewritten, _ := cf.Encode()
	vm, err := jvm.New(jvm.MapLoader{"app/Main": rewritten, "app/Dep": depBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_, thrown, err := vm.MainThread().InvokeByName("app/Main", "run", "()I", nil)
		if err != nil || thrown != nil {
			t.Fatalf("call %d: %v %v", i, err, jvm.DescribeThrowable(thrown))
		}
	}
	// run's scope has 2 assumptions (Dep.value field, Dep.mul method);
	// the guard must keep it at 2 across 5 invocations.
	if vm.Stats.LinkChecks != 2 {
		t.Errorf("LinkChecks = %d, want 2 (guard failed)", vm.Stats.LinkChecks)
	}
}

func TestDetectedBadAssumptionAtRuntime(t *testing.T) {
	// app/Dep exists but with a *different* descriptor than app/Main
	// assumes: the injected check must catch it before use.
	mainBytes, _ := buildDependent(t)
	badDep := classgen.NewClass("app/Dep", "java/lang/Object")
	badDep.Field(classfile.AccPublic|classfile.AccStatic, "value", "J") // J, not I
	mulBad := badDep.Method(classfile.AccPublic|classfile.AccStatic, "mul", "(I)I")
	mulBad.ILoad(0).IReturn()
	badBytes, err := badDep.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}

	cf, _ := classfile.Parse(mainBytes)
	res, _ := Verify(cf)
	if err := Instrument(cf, res); err != nil {
		t.Fatal(err)
	}
	rewritten, _ := cf.Encode()
	vm, err := jvm.New(jvm.MapLoader{"app/Main": rewritten, "app/Dep": badBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, thrown, err := vm.MainThread().InvokeByName("app/Main", "run", "()I", nil)
	if err != nil {
		t.Fatal(err)
	}
	if thrown == nil || thrown.Class.Name != "java/lang/NoSuchFieldError" {
		t.Errorf("thrown = %v, want NoSuchFieldError from injected check", jvm.DescribeThrowable(thrown))
	}
}

func TestMakeErrorClass(t *testing.T) {
	data, err := MakeErrorClass("app/Bad", "rejected by central verifier")
	if err != nil {
		t.Fatal(err)
	}
	vm, err := jvm.New(jvm.MapLoader{"app/Bad": data}, nil)
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
	if !strings.Contains(jvm.ThrowableMessage(thrown), "central verifier") {
		t.Errorf("message = %q", jvm.ThrowableMessage(thrown))
	}
}

func TestVerifierFilterInPipeline(t *testing.T) {
	mainBytes, _ := buildDependent(t)
	p := rewrite.NewPipeline(Filter())
	ctx := rewrite.NewContext()
	out, err := p.Process(mainBytes, ctx)
	if err != nil {
		t.Fatal(err)
	}
	census, ok := ctx.Notes[NoteCensus].(*Census)
	if !ok || census.Static() == 0 {
		t.Fatalf("census note missing or empty: %v", ctx.Notes)
	}
	cf, err := classfile.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	a := cf.FindAttr(cf.Attributes, AttrVerified)
	if a == nil {
		t.Fatal("dvm.Verified attribute missing")
	}
	got, ok := DecodeVerifiedAttr(a)
	if !ok || got.DynamicInjected == 0 {
		t.Errorf("decoded census = %+v ok=%v", got, ok)
	}
}

func TestLocalHookMonolithicBaseline(t *testing.T) {
	mainBytes, depBytes := buildDependent(t)
	var census Census
	loader := jvm.MapLoader{"app/Main": mainBytes, "app/Dep": depBytes}
	vm, err := jvm.New(loader, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm.LoadHooks = append(vm.LoadHooks, LocalHook(&census, nil))
	_, thrown, err := vm.MainThread().InvokeByName("app/Main", "run", "()I", nil)
	if err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	if census.Static() == 0 {
		t.Error("local verifier performed no checks")
	}
	if vm.Stats.LinkChecks != 0 {
		t.Error("monolithic client executed injected DVM checks")
	}
	// The hook must reject malformed classes at load time.
	bad := append([]byte(nil), mainBytes...)
	bad[9] ^= 0xFF // corrupt pool count region
	vm2, err := jvm.New(jvm.MapLoader{"app/Main": bad}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm2.LoadHooks = append(vm2.LoadHooks, LocalHook(nil, nil))
	if _, _, err := vm2.MainThread().InvokeByName("app/Main", "run", "()I", nil); err == nil {
		t.Error("corrupted class accepted by monolithic client")
	}
}

// TestVerifyErrorLowestMethodWins corrupts the bytecode of two methods
// and checks that verification reports the one earlier in the method
// table, in the same words every time: the text ends up in the
// replacement class an attested fleet must agree on.
func TestVerifyErrorLowestMethodWins(t *testing.T) {
	spec := workload.Benchmarks()[0]
	spec.Classes = 3
	spec.TargetBytes = 24 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data := app.Classes["jlex/C001"]

	// corrupt breaks the first two code-bearing methods, or only the second.
	corrupt := func(onlySecond bool) (*classfile.ClassFile, string) {
		cf, err := classfile.Parse(bytes.Clone(data)) // Code.Bytecode aliases the parsed buffer

		if err != nil {
			t.Fatal(err)
		}
		broken, first := 0, ""
		for _, m := range cf.Methods {
			code, err := cf.CodeOf(m)
			if err != nil || code == nil {
				continue
			}
			if broken++; broken == 1 {
				first = cf.MemberName(m) + cf.MemberDescriptor(m)
				if onlySecond {
					continue
				}
			}
			code.Bytecode[0] = 0xFF // impdep2: illegal in classfiles
			if err := cf.SetCode(m, code); err != nil {
				t.Fatal(err)
			}
			if broken == 2 {
				return cf, first
			}
		}
		t.Fatal("fixture: the class has fewer than two methods with code")
		return nil, ""
	}

	cf, first := corrupt(false)
	_, want := Verify(cf)
	var ve *Error
	if !asVerifierError(want, &ve) || ve.Phase != 2 || ve.Method != first {
		t.Fatalf("two corrupted methods: error %v, want a phase-2 rejection of %s", want, first)
	}
	for i := 0; i < 5; i++ {
		cf, _ := corrupt(false)
		if _, err := Verify(cf); err == nil || err.Error() != want.Error() {
			t.Fatalf("run %d reports %v, the first run reported %v", i, err, want)
		}
	}
	cf, _ = corrupt(true)
	if _, err := Verify(cf); !asVerifierError(err, &ve) || ve.Method == first {
		t.Fatalf("only the second method corrupted: error %v still names %s", err, first)
	}
}
