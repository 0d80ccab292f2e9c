package jvm

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/slab"
)

// raceBuild reports whether the test binary was built with -race, under
// which the detector's own bookkeeping allocates: the allocation pins
// then only log.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// pinAllocs fails when fn allocates more than limit times a run, except
// under -race, where it only logs.
func pinAllocs(t *testing.T, runs int, limit float64, fn func()) {
	t.Helper()
	n := testing.AllocsPerRun(runs, fn)
	t.Logf("%.1f allocations a run (limit %.0f)", n, limit)
	if n > limit && !raceBuild() {
		t.Errorf("%.1f allocations a run, want at most %.0f", n, limit)
	}
}

// unverified returns a class with one static method whose code is
// exactly code, with the given max_stack and max_locals: what a proxy
// that skipped verification could deliver. The client runs it with no
// load hook, as a DVM client does.
func unverified(t *testing.T, class, method, desc string, maxStack, maxLocals uint16, code ...byte) []byte {
	t.Helper()
	b := classgen.NewClass(class, "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, method, desc).Return()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	mm := cf.FindMethod(method, desc)
	c, err := cf.CodeOf(mm)
	if err != nil {
		t.Fatal(err)
	}
	c.MaxStack, c.MaxLocals, c.Bytecode = maxStack, maxLocals, code
	if err := cf.SetCode(mm, c); err != nil {
		t.Fatal(err)
	}
	out, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBadOperandStackIsAVMError runs code no verifier would pass: each
// case ends its run with a VM error that names the method and the
// instruction, the process survives, and the thread stack is whole
// again for the next call.
func TestBadOperandStackIsAVMError(t *testing.T) {
	pop, pop2, iconst0, dup, ireturn, ret := byte(bytecode.Pop), byte(bytecode.Pop2),
		byte(bytecode.Iconst0), byte(bytecode.Dup), byte(bytecode.Ireturn), byte(bytecode.Return)
	cases := []struct {
		name, desc          string
		maxStack, maxLocals uint16
		code                []byte
		want                string
	}{
		{"underflow", "()V", 0, 0, []byte{pop, ret}, "demo/Bad.underflow()V @0: "},
		{"underflow2", "()V", 1, 0, []byte{iconst0, pop2, ret}, "demo/Bad.underflow2()V @1: "},
		{"dupEmpty", "()V", 0, 0, []byte{dup, ret}, "demo/Bad.dupEmpty()V @0: "},
		{"returnEmpty", "()I", 0, 0, []byte{ireturn}, "demo/Bad.returnEmpty()I @0: "},
		// The operand stack holds max_stack+2 slots: the fourth push is
		// the one that no longer fits.
		{"overflow", "()V", 1, 0, []byte{iconst0, iconst0, iconst0, iconst0, ret}, "demo/Bad.overflow()V @3: "},
		{"local", "()V", 1, 1, []byte{byte(bytecode.Iload), 9, pop, ret}, "demo/Bad.local()V @0: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			class := unverified(t, "demo/Bad", c.name, c.desc, c.maxStack, c.maxLocals, c.code...)
			vm, err := New(MapLoader{"demo/Bad": class}, nil)
			if err != nil {
				t.Fatal(err)
			}
			th := vm.MainThread()
			_, thrown, err := th.InvokeByName("demo/Bad", c.name, c.desc, nil)
			if thrown != nil {
				t.Fatalf("thrown %s, want a VM error", DescribeThrowable(thrown))
			}
			if err == nil || !strings.HasPrefix(err.Error(), "jvm: "+c.want) {
				t.Fatalf("err = %v, want one starting %q", err, "jvm: "+c.want)
			}
			if len(th.frames) != 0 || th.slots != 0 || th.valueSlab.Mark() != 0 || th.frameSlab.Mark() != 0 {
				t.Errorf("after the error: %d frames, %d slots, marks %d/%d; want an empty stack",
					len(th.frames), th.slots, th.valueSlab.Mark(), th.frameSlab.Mark())
			}
			if _, thrown, err := th.InvokeByName("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I",
				[]Value{RefV(vm.InternString("42"))}); err != nil || thrown != nil {
				t.Errorf("the next call: err=%v thrown=%s", err, DescribeThrowable(thrown))
			}
		})
	}

	// A fault in a callee names the callee, under its caller's frame.
	b := classgen.NewClass("demo/Caller", "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, "call", "()V").
		IConst(7).Pop().InvokeStatic("demo/Bad", "underflow", "()V").Return()
	caller, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := New(MapLoader{"demo/Caller": caller,
		"demo/Bad": unverified(t, "demo/Bad", "underflow", "()V", 0, 0, pop, ret)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = vm.MainThread().InvokeByName("demo/Caller", "call", "()V", nil)
	want := "jvm: demo/Caller.call()V @2: jvm: demo/Bad.underflow()V @0: runtime error: index out of range [-1]"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v\nwant   %s", err, want)
	}
}

// TestLocalsBombOverflowsTheThreadStack recurses without end through a
// method with max_locals 65535. Each activation takes 64 Ki slots, so the
// thread's slot cap stops it after 15 with StackOverflowError, long
// before maxCallDepth, and the whole descent allocates well under 64 MB.
func TestLocalsBombOverflowsTheThreadStack(t *testing.T) {
	b := classgen.NewClass("demo/Bomb", "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, "r", "()V").
		IConst(0).IStore(65534).InvokeStatic("demo/Bomb", "r", "()V").Return()
	vm := newTestVM(t, nil, b)
	c, err := vm.Class("demo/Bomb")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.DeclaredMethod("r", "()V").Code.MaxLocals; got != 65535 {
		t.Fatalf("max_locals = %d, want 65535", got)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, thrown := callStatic(t, vm, "demo/Bomb", "r", "()V")
	runtime.ReadMemStats(&m1)
	if thrown == nil || thrown.Class.Name != "java/lang/StackOverflowError" {
		t.Fatalf("thrown %s, want StackOverflowError", DescribeThrowable(thrown))
	}
	perFrame := 65535 + 1 + 1 + 2
	if got, want := vm.Stats.MethodInvocations, int64(maxStackSlots/perFrame+1); got != want {
		t.Errorf("%d invocations, want %d (the last one refused)", got, want)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d invocations, %.1f MB allocated", vm.Stats.MethodInvocations, float64(alloc)/(1<<20))
	if alloc >= 64<<20 {
		t.Errorf("the descent allocated %.1f MB, want under 64 MB", float64(alloc)/(1<<20))
	}
	if th := vm.MainThread(); th.slots != 0 || len(th.frames) != 0 {
		t.Errorf("after the overflow: %d slots, %d frames held", th.slots, len(th.frames))
	}
}

// TestWarmInvokeAllocatesNothing pins a warm static call with two int
// arguments and a result: frame, locals, operand stack and argument
// vector all come from the thread stack.
func TestWarmInvokeAllocatesNothing(t *testing.T) {
	b := classgen.NewClass("demo/Warm", "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, "add", "(II)I").
		ILoad(0).ILoad(1).IAdd().IReturn()
	b.Method(classfile.AccPublic|classfile.AccStatic, "outer", "()I").
		IConst(2).IConst(3).InvokeStatic("demo/Warm", "add", "(II)I").IReturn()
	vm := newTestVM(t, nil, b)
	c, err := vm.Class("demo/Warm")
	if err != nil {
		t.Fatal(err)
	}
	outer := c.DeclaredMethod("outer", "()I")
	th := vm.MainThread()
	call := func() {
		v, thrown, err := th.Invoke(outer, nil)
		if err != nil || thrown != nil || v.Int() != 5 {
			t.Fatalf("outer() = %v, err=%v thrown=%s", v, err, DescribeThrowable(thrown))
		}
	}
	call()
	pinAllocs(t, 1000, 0, call)
}

// launchAllocsBefore is what one launch (jvm.New through RunMain)
// allocated when every activation made its frame, locals, operand stack
// and argument vector on the heap.
const launchAllocsBefore = 17086

// TestLaunchAllocationBudget holds a launch of the benchmark's app to two
// thirds of that.
func TestLaunchAllocationBudget(t *testing.T) {
	launchClasses(t)
	pinAllocs(t, 3, launchAllocsBefore*2/3, func() {
		if _, _, thrown, err := launch(t, nil); err != nil || thrown != nil {
			t.Fatalf("launch: err=%v thrown=%s", err, DescribeThrowable(thrown))
		}
	})
}

// TestNativeArgsAreNotKept runs the launch app and a program that hands
// references to the collection and string natives with poisoning on: an
// argument vector is scribbled over as soon as its call returns, so a
// native that kept the slice instead of copying its Values would print
// something else, or fail.
func TestNativeArgsAreNotKept(t *testing.T) {
	_, want, _, _ := launch(t, nil)
	defer slab.PoisonOnReset(slab.PoisonOnReset(true))
	if _, got, thrown, err := launch(t, nil); err != nil || thrown != nil || got != want {
		t.Errorf("poisoned launch: err=%v thrown=%s, stdout %q, want %q", err, DescribeThrowable(thrown), got, want)
	}

	b := classgen.NewClass("demo/Keep", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	m.NewDup("java/util/Vector").InvokeSpecial("java/util/Vector", "<init>", "()V").AStore(1)
	m.ALoad(1).LdcString("first").InvokeVirtual("java/util/Vector", "addElement", "(Ljava/lang/Object;)V")
	m.ALoad(1).LdcString("second").InvokeVirtual("java/util/Vector", "addElement", "(Ljava/lang/Object;)V")
	m.NewDup("java/lang/StringBuffer").InvokeSpecial("java/lang/StringBuffer", "<init>", "()V").AStore(2)
	for i := 0; i < 2; i++ {
		m.ALoad(2).ALoad(1).IConst(int32(i)).InvokeVirtual("java/util/Vector", "elementAt", "(I)Ljava/lang/Object;")
		m.CheckCast("java/lang/String")
		m.InvokeVirtual("java/lang/StringBuffer", "append", "(Ljava/lang/String;)Ljava/lang/StringBuffer;").Pop()
	}
	m.GetStatic("java/lang/System", "out", "Ljava/io/PrintStream;")
	m.ALoad(2).InvokeVirtual("java/lang/StringBuffer", "toString", "()Ljava/lang/String;")
	m.InvokeVirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	m.Return()
	var out bytes.Buffer
	vm := newTestVM(t, &out, b)
	if thrown, err := vm.RunMain("demo/Keep", nil); err != nil || thrown != nil {
		t.Fatalf("RunMain: err=%v thrown=%s", err, DescribeThrowable(thrown))
	}
	if out.String() != "firstsecond\n" {
		t.Errorf("printed %q, want %q", out.String(), "firstsecond\n")
	}
}

// TestCollectorSeesTheOperandStack leaves an object whose only reference
// is on the operand stack, above the last call, and then runs each
// allocating instruction with a collection armed: the collector must see
// the loop's stack pointer as it is, not as the last call left it.
func TestCollectorSeesTheOperandStack(t *testing.T) {
	h := classgen.NewClass("demo/Holder", "java/lang/Object")
	h.Field(classfile.AccPublic, "obj", "Ljava/lang/Object;")
	h.Method(classfile.AccPublic, "<init>", "()V").
		ALoad(0).InvokeSpecial("java/lang/Object", "<init>", "()V").
		ALoad(0).NewDup("java/lang/Object").InvokeSpecial("java/lang/Object", "<init>", "()V").
		PutField("demo/Holder", "obj", "Ljava/lang/Object;").Return()
	b := classgen.NewClass("demo/Roots", "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, "arm", "()V").Return()
	sites := []struct {
		name string
		emit func(m *classgen.MethodBuilder)
	}{
		{"new", func(m *classgen.MethodBuilder) { m.New("java/lang/Object") }},
		{"newarray", func(m *classgen.MethodBuilder) { m.IConst(1).NewArray(bytecode.TInt) }},
		{"anewarray", func(m *classgen.MethodBuilder) { m.IConst(1).ANewArray("java/lang/Object") }},
		{"multianewarray", func(m *classgen.MethodBuilder) {
			m.IConst(1).IConst(1).Raw(bytecode.Inst{Op: bytecode.Multianewarray, Index: b.Pool().AddClass("[[I"), Dims: 2})
		}},
		{"ldc", func(m *classgen.MethodBuilder) { m.LdcString("a string no one interned yet") }},
	}
	for _, s := range sites {
		m := b.Method(classfile.AccPublic|classfile.AccStatic, s.name, "()Ljava/lang/Object;")
		m.NewDup("demo/Holder").InvokeSpecial("demo/Holder", "<init>", "()V")
		m.InvokeStatic("demo/Roots", "arm", "()V")
		// The holder goes; its object is reachable only from the stack,
		// one slot above where the call left the stack pointer.
		m.GetField("demo/Holder", "obj", "Ljava/lang/Object;").AConstNull().Swap()
		s.emit(m)
		m.Pop().Swap().Pop().AReturn()
	}
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			vm := newTestVM(t, nil, h, b)
			vm.RegisterNative("demo/Roots", "arm", "()V", func(t *Thread, args []Value) (Value, *Object, error) {
				t.vm.SetGCThreshold(1)
				return Value{}, nil, nil
			})
			runs := vm.Stats.GCRuns
			v, thrown := callStatic(t, vm, "demo/Roots", s.name, "()Ljava/lang/Object;")
			if thrown != nil || v.Ref() == nil {
				t.Fatalf("returned %v, thrown %s", v, DescribeThrowable(thrown))
			}
			if vm.Stats.GCRuns == runs {
				t.Fatalf("no collection ran during %s", s.name)
			}
			for o := vm.heapHead; o != nil; o = o.next {
				if o == v.Ref() {
					return
				}
			}
			t.Errorf("the object on the operand stack was collected during %s", s.name)
		})
	}
}
