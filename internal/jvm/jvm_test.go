package jvm

import (
	"bytes"
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// HeapCount returns the number of objects currently on the managed heap.
func (vm *VM) HeapCount() int { return vm.heapCount }

// SetGCThreshold overrides the live-object count that triggers automatic
// collection.
func (vm *VM) SetGCThreshold(n int) {
	if n > 0 {
		vm.gcThreshold = n
	}
}

// Depth returns the current call depth.
func (t *Thread) Depth() int { return len(t.frames) }

// newTestVM builds a VM over the given generated classes.
func newTestVM(t *testing.T, out *bytes.Buffer, builders ...*classgen.ClassBuilder) *VM {
	t.Helper()
	loader := MapLoader{}
	for _, b := range builders {
		data, err := b.BuildBytes()
		if err != nil {
			t.Fatalf("building class: %v", err)
		}
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatalf("parsing generated class: %v", err)
		}
		loader[cf.Name()] = data
	}
	var w *bytes.Buffer
	if out != nil {
		w = out
	} else {
		w = &bytes.Buffer{}
	}
	vm, err := New(loader, w)
	if err != nil {
		t.Fatalf("New VM: %v", err)
	}
	return vm
}

// callStatic invokes a static method and fails the test on VM errors.
func callStatic(t *testing.T, vm *VM, class, name, desc string, args ...Value) (Value, *Object) {
	t.Helper()
	v, thrown, err := vm.MainThread().InvokeByName(class, name, desc, args)
	if err != nil {
		t.Fatalf("%s.%s%s: vm error: %v", class, name, desc, err)
	}
	return v, thrown
}

func TestHelloWorld(t *testing.T) {
	b := classgen.NewClass("demo/Hello", "java/lang/Object")
	b.DefaultInit()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	m.GetStatic("java/lang/System", "out", "Ljava/io/PrintStream;")
	m.LdcString("hello world")
	m.InvokeVirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	m.Return()

	var out bytes.Buffer
	vm := newTestVM(t, &out, b)
	thrown, err := vm.RunMain("demo/Hello", nil)
	if err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if thrown != nil {
		t.Fatalf("uncaught: %s", DescribeThrowable(thrown))
	}
	if got := out.String(); got != "hello world\n" {
		t.Errorf("output = %q", got)
	}
}

func TestArithmeticLoop(t *testing.T) {
	b := classgen.NewClass("demo/Sum", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "sum", "(I)I")
	m.IConst(0).IStore(1)
	m.IConst(0).IStore(2)
	head := m.Here()
	exit := m.NewLabel()
	m.ILoad(2).ILoad(0).Branch(bytecode.IfIcmpge, exit)
	m.ILoad(1).ILoad(2).IAdd().IStore(1)
	m.IInc(2, 1)
	m.Goto(head)
	m.Mark(exit)
	m.ILoad(1).IReturn()

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Sum", "sum", "(I)I", IntV(100))
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 4950 {
		t.Errorf("sum(100) = %d, want 4950", v.Int())
	}
}

func TestIntegerEdgeCases(t *testing.T) {
	b := classgen.NewClass("demo/Edge", "java/lang/Object")
	div := b.Method(classfile.AccPublic|classfile.AccStatic, "div", "(II)I")
	div.ILoad(0).ILoad(1).IDiv().IReturn()
	rem := b.Method(classfile.AccPublic|classfile.AccStatic, "rem", "(II)I")
	rem.ILoad(0).ILoad(1).IRem().IReturn()
	shift := b.Method(classfile.AccPublic|classfile.AccStatic, "ushr", "(II)I")
	shift.ILoad(0).ILoad(1).Inst(bytecode.Iushr).IReturn()

	vm := newTestVM(t, nil, b)

	// MinInt / -1 must not trap.
	v, thrown := callStatic(t, vm, "demo/Edge", "div", "(II)I", IntV(-2147483648), IntV(-1))
	if thrown != nil || v.Int() != -2147483648 {
		t.Errorf("MinInt/-1 = %v thrown=%v", v, thrown)
	}
	v, thrown = callStatic(t, vm, "demo/Edge", "rem", "(II)I", IntV(-2147483648), IntV(-1))
	if thrown != nil || v.Int() != 0 {
		t.Errorf("MinInt%%-1 = %v thrown=%v", v, thrown)
	}
	// Division by zero throws.
	_, thrown = callStatic(t, vm, "demo/Edge", "div", "(II)I", IntV(1), IntV(0))
	if thrown == nil || thrown.Class.Name != "java/lang/ArithmeticException" {
		t.Errorf("1/0 thrown = %v", DescribeThrowable(thrown))
	}
	// Unsigned shift and shift-distance masking.
	v, _ = callStatic(t, vm, "demo/Edge", "ushr", "(II)I", IntV(-1), IntV(28))
	if v.Int() != 15 {
		t.Errorf("-1 >>> 28 = %d, want 15", v.Int())
	}
	v, _ = callStatic(t, vm, "demo/Edge", "ushr", "(II)I", IntV(-1), IntV(33))
	if v.Int() != int32(uint32(0xFFFFFFFF)>>1) {
		t.Errorf("-1 >>> 33 = %d (shift distance must be masked to 1)", v.Int())
	}
}

func TestLongAndDoubleArithmetic(t *testing.T) {
	b := classgen.NewClass("demo/Wide", "java/lang/Object")
	lm := b.Method(classfile.AccPublic|classfile.AccStatic, "lmul", "(JJ)J")
	lm.LLoad(0).LLoad(2).Inst(bytecode.Lmul).LReturn()
	dm := b.Method(classfile.AccPublic|classfile.AccStatic, "davg", "(DD)D")
	dm.DLoad(0).DLoad(2).Inst(bytecode.Dadd).DConst(2).Inst(bytecode.Ddiv).Inst(bytecode.Dreturn)
	conv := b.Method(classfile.AccPublic|classfile.AccStatic, "l2i", "(J)I")
	conv.LLoad(0).Inst(bytecode.L2i).IReturn()

	vm := newTestVM(t, nil, b)
	v, _ := callStatic(t, vm, "demo/Wide", "lmul", "(JJ)J", LongV(1<<31), LongV(4))
	if v.Long() != 1<<33 {
		t.Errorf("lmul = %d", v.Long())
	}
	v, _ = callStatic(t, vm, "demo/Wide", "davg", "(DD)D", DoubleV(1.5), DoubleV(2.5))
	if v.Double() != 2.0 {
		t.Errorf("davg = %g", v.Double())
	}
	v, _ = callStatic(t, vm, "demo/Wide", "l2i", "(J)I", LongV(1<<33|7))
	if v.Int() != 7 {
		t.Errorf("l2i = %d", v.Int())
	}
}

func TestFieldsAndInheritance(t *testing.T) {
	base := classgen.NewClass("demo/Base", "java/lang/Object")
	base.Field(classfile.AccProtected, "x", "I")
	base.DefaultInit()
	getx := base.Method(classfile.AccPublic, "getX", "()I")
	getx.ALoad(0).GetField("demo/Base", "x", "I").IReturn()
	name := base.Method(classfile.AccPublic, "name", "()I")
	name.IConst(1).IReturn()

	sub := classgen.NewClass("demo/Sub", "demo/Base")
	sub.Field(classfile.AccPrivate, "y", "I")
	sub.DefaultInit()
	name2 := sub.Method(classfile.AccPublic, "name", "()I")
	name2.IConst(2).IReturn()

	driver := classgen.NewClass("demo/Drv", "java/lang/Object")
	run := driver.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	run.NewDup("demo/Sub")
	run.InvokeSpecial("demo/Sub", "<init>", "()V")
	run.AStore(0)
	// set inherited field through subclass reference
	run.ALoad(0).IConst(40).PutField("demo/Base", "x", "I")
	// virtual dispatch: name() resolves to Sub.name -> 2
	run.ALoad(0).InvokeVirtual("demo/Base", "name", "()I")
	// + getX() -> 40
	run.ALoad(0).InvokeVirtual("demo/Base", "getX", "()I")
	run.IAdd().IReturn()

	vm := newTestVM(t, nil, base, sub, driver)
	v, thrown := callStatic(t, vm, "demo/Drv", "run", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 42 {
		t.Errorf("run = %d, want 42", v.Int())
	}
}

func TestStaticFieldsAndClinit(t *testing.T) {
	b := classgen.NewClass("demo/Stat", "java/lang/Object")
	b.Field(classfile.AccPublic|classfile.AccStatic, "counter", "I")
	cl := b.Method(classfile.AccStatic, "<clinit>", "()V")
	cl.IConst(7).PutStatic("demo/Stat", "counter", "I")
	cl.Return()
	get := b.Method(classfile.AccPublic|classfile.AccStatic, "get", "()I")
	get.GetStatic("demo/Stat", "counter", "I").IReturn()
	bump := b.Method(classfile.AccPublic|classfile.AccStatic, "bump", "()I")
	bump.GetStatic("demo/Stat", "counter", "I").IConst(1).IAdd()
	bump.Dup().PutStatic("demo/Stat", "counter", "I")
	bump.IReturn()

	vm := newTestVM(t, nil, b)
	v, _ := callStatic(t, vm, "demo/Stat", "get", "()I")
	if v.Int() != 7 {
		t.Errorf("clinit did not run: counter = %d", v.Int())
	}
	v, _ = callStatic(t, vm, "demo/Stat", "bump", "()I")
	if v.Int() != 8 {
		t.Errorf("bump = %d", v.Int())
	}
	// clinit must not run twice.
	v, _ = callStatic(t, vm, "demo/Stat", "get", "()I")
	if v.Int() != 8 {
		t.Errorf("counter reset by second clinit: %d", v.Int())
	}
}

func TestInterfaceDispatch(t *testing.T) {
	iface := classgen.NewClass("demo/Greeter", "java/lang/Object")
	iface.SetFlags(classfile.AccPublic | classfile.AccInterface | classfile.AccAbstract)
	iface.AbstractMethod(classfile.AccPublic|classfile.AccAbstract, "greet", "()I")

	impl := classgen.NewClass("demo/English", "java/lang/Object")
	impl.AddInterface("demo/Greeter")
	impl.DefaultInit()
	g := impl.Method(classfile.AccPublic, "greet", "()I")
	g.IConst(99).IReturn()

	drv := classgen.NewClass("demo/IDrv", "java/lang/Object")
	run := drv.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	run.NewDup("demo/English")
	run.InvokeSpecial("demo/English", "<init>", "()V")
	run.InvokeInterface("demo/Greeter", "greet", "()I")
	run.IReturn()

	vm := newTestVM(t, nil, iface, impl, drv)
	v, thrown := callStatic(t, vm, "demo/IDrv", "run", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 99 {
		t.Errorf("greet = %d", v.Int())
	}
	// instanceof through the interface
	eng, _ := vm.Class("demo/English")
	gr, _ := vm.Class("demo/Greeter")
	if !eng.AssignableTo(gr) {
		t.Error("English not assignable to Greeter")
	}
}

func TestExceptionsThrowCatch(t *testing.T) {
	b := classgen.NewClass("demo/Exc", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "(I)I")
	start := m.Here()
	// if (x == 0) throw new RuntimeException("boom"); return 10;
	skip := m.NewLabel()
	m.ILoad(0).Branch(bytecode.Ifne, skip)
	m.NewDup("java/lang/RuntimeException")
	m.LdcString("boom")
	m.InvokeSpecial("java/lang/RuntimeException", "<init>", "(Ljava/lang/String;)V")
	m.AThrow()
	m.Mark(skip)
	m.IConst(10).IReturn()
	end := m.NewLabel()
	m.Mark(end)
	handler := m.Here()
	m.Pop()
	m.IConst(20).IReturn()
	m.Handler(start, end, handler, "java/lang/RuntimeException")

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Exc", "f", "(I)I", IntV(0))
	if thrown != nil {
		t.Fatalf("should have been caught: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 20 {
		t.Errorf("caught path = %d, want 20", v.Int())
	}
	v, thrown = callStatic(t, vm, "demo/Exc", "f", "(I)I", IntV(1))
	if thrown != nil || v.Int() != 10 {
		t.Errorf("normal path = %d thrown=%v", v.Int(), thrown)
	}
}

func TestExceptionPropagatesAcrossFrames(t *testing.T) {
	b := classgen.NewClass("demo/Prop", "java/lang/Object")
	inner := b.Method(classfile.AccPublic|classfile.AccStatic, "inner", "()V")
	inner.NewDup("java/lang/IllegalStateException")
	inner.LdcString("deep")
	inner.InvokeSpecial("java/lang/IllegalStateException", "<init>", "(Ljava/lang/String;)V")
	inner.AThrow()
	outer := b.Method(classfile.AccPublic|classfile.AccStatic, "outer", "()I")
	s := outer.Here()
	outer.InvokeStatic("demo/Prop", "inner", "()V")
	outer.IConst(0).IReturn()
	e := outer.NewLabel()
	outer.Mark(e)
	h := outer.Here()
	// Return the message length to prove we caught the right object.
	outer.InvokeVirtual("java/lang/Throwable", "getMessage", "()Ljava/lang/String;")
	outer.InvokeVirtual("java/lang/String", "length", "()I")
	outer.IReturn()
	outer.Handler(s, e, h, "java/lang/RuntimeException")

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Prop", "outer", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 4 {
		t.Errorf("message length = %d, want 4", v.Int())
	}
}

func TestUncaughtExceptionSurfaces(t *testing.T) {
	b := classgen.NewClass("demo/Unc", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()V")
	m.AConstNull()
	m.InvokeVirtual("java/lang/Object", "hashCode", "()I")
	m.Pop()
	m.Return()
	vm := newTestVM(t, nil, b)
	_, thrown := callStatic(t, vm, "demo/Unc", "f", "()V")
	if thrown == nil || thrown.Class.Name != "java/lang/NullPointerException" {
		t.Errorf("thrown = %v", DescribeThrowable(thrown))
	}
}

func TestArrays(t *testing.T) {
	b := classgen.NewClass("demo/Arr", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "sumSquares", "(I)I")
	// int[] a = new int[n]; for i: a[i] = i*i; sum
	m.ILoad(0).NewArray(bytecode.TInt).AStore(1)
	m.IConst(0).IStore(2)
	head := m.Here()
	fill := m.NewLabel()
	m.ILoad(2).ILoad(0).Branch(bytecode.IfIcmpge, fill)
	m.ALoad(1).ILoad(2).ILoad(2).ILoad(2).IMul().Inst(bytecode.Iastore)
	m.IInc(2, 1)
	m.Goto(head)
	m.Mark(fill)
	m.IConst(0).IStore(3) // sum
	m.IConst(0).IStore(2)
	head2 := m.Here()
	done := m.NewLabel()
	m.ILoad(2).ALoad(1).ArrayLength().Branch(bytecode.IfIcmpge, done)
	m.ILoad(3).ALoad(1).ILoad(2).Inst(bytecode.Iaload).IAdd().IStore(3)
	m.IInc(2, 1)
	m.Goto(head2)
	m.Mark(done)
	m.ILoad(3).IReturn()

	oob := b.Method(classfile.AccPublic|classfile.AccStatic, "oob", "()I")
	oob.IConst(3).NewArray(bytecode.TInt).AStore(0)
	oob.ALoad(0).IConst(5).Inst(bytecode.Iaload).IReturn()

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Arr", "sumSquares", "(I)I", IntV(10))
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 285 {
		t.Errorf("sumSquares(10) = %d, want 285", v.Int())
	}
	_, thrown = callStatic(t, vm, "demo/Arr", "oob", "()I")
	if thrown == nil || thrown.Class.Name != "java/lang/ArrayIndexOutOfBoundsException" {
		t.Errorf("oob thrown = %v", DescribeThrowable(thrown))
	}
}

func TestMultiANewArray(t *testing.T) {
	b := classgen.NewClass("demo/MArr", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "grid", "()I")
	m.IConst(3).IConst(4)
	m.Raw(bytecode.Inst{Op: bytecode.Multianewarray, Index: b.Pool().AddClass("[[I"), Dims: 2})
	m.AStore(0)
	m.ALoad(0).IConst(2).Inst(bytecode.Aaload).ArrayLength().IReturn()

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/MArr", "grid", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 4 {
		t.Errorf("inner length = %d, want 4", v.Int())
	}
}

func TestStringsAndStringBuffer(t *testing.T) {
	b := classgen.NewClass("demo/Str", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "build", "(I)Ljava/lang/String;")
	m.NewDup("java/lang/StringBuffer")
	m.InvokeSpecial("java/lang/StringBuffer", "<init>", "()V")
	m.LdcString("n=")
	m.InvokeVirtual("java/lang/StringBuffer", "append", "(Ljava/lang/String;)Ljava/lang/StringBuffer;")
	m.ILoad(0)
	m.InvokeVirtual("java/lang/StringBuffer", "append", "(I)Ljava/lang/StringBuffer;")
	m.InvokeVirtual("java/lang/StringBuffer", "toString", "()Ljava/lang/String;")
	m.AReturn()

	eq := b.Method(classfile.AccPublic|classfile.AccStatic, "eq", "()Z")
	eq.LdcString("abc")
	eq.LdcString("ab")
	eq.LdcString("c")
	eq.InvokeVirtual("java/lang/String", "concat", "(Ljava/lang/String;)Ljava/lang/String;")
	eq.InvokeVirtual("java/lang/String", "equals", "(Ljava/lang/Object;)Z")
	eq.IReturn()

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Str", "build", "(I)Ljava/lang/String;", IntV(42))
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if got := GoString(v.Ref()); got != "n=42" {
		t.Errorf("build = %q", got)
	}
	v, _ = callStatic(t, vm, "demo/Str", "eq", "()Z")
	if v.Int() != 1 {
		t.Error("\"abc\".equals(\"ab\".concat(\"c\")) = false")
	}
}

func TestSwitchExecution(t *testing.T) {
	b := classgen.NewClass("demo/Sw", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "t", "(I)I")
	def := m.NewLabel()
	a1 := m.NewLabel()
	a2 := m.NewLabel()
	m.ILoad(0)
	m.TableSwitch(5, def, a1, a2)
	m.Mark(a1)
	m.IConst(50).IReturn()
	m.Mark(a2)
	m.IConst(60).IReturn()
	m.Mark(def)
	m.IConst(-1).IReturn()

	l := b.Method(classfile.AccPublic|classfile.AccStatic, "l", "(I)I")
	ldef := l.NewLabel()
	la := l.NewLabel()
	lb := l.NewLabel()
	l.ILoad(0)
	l.LookupSwitch(ldef, []int32{-100, 1000}, []classgen.Label{la, lb})
	l.Mark(la)
	l.IConst(1).IReturn()
	l.Mark(lb)
	l.IConst(2).IReturn()
	l.Mark(ldef)
	l.IConst(0).IReturn()

	vm := newTestVM(t, nil, b)
	cases := []struct{ in, want int32 }{{5, 50}, {6, 60}, {7, -1}, {4, -1}}
	for _, c := range cases {
		v, _ := callStatic(t, vm, "demo/Sw", "t", "(I)I", IntV(c.in))
		if v.Int() != c.want {
			t.Errorf("t(%d) = %d, want %d", c.in, v.Int(), c.want)
		}
	}
	lcases := []struct{ in, want int32 }{{-100, 1}, {1000, 2}, {0, 0}}
	for _, c := range lcases {
		v, _ := callStatic(t, vm, "demo/Sw", "l", "(I)I", IntV(c.in))
		if v.Int() != c.want {
			t.Errorf("l(%d) = %d, want %d", c.in, v.Int(), c.want)
		}
	}
}

func TestRecursionAndStackOverflow(t *testing.T) {
	b := classgen.NewClass("demo/Rec", "java/lang/Object")
	fact := b.Method(classfile.AccPublic|classfile.AccStatic, "fact", "(I)I")
	base := fact.NewLabel()
	fact.ILoad(0).IConst(1).Branch(bytecode.IfIcmple, base)
	fact.ILoad(0)
	fact.ILoad(0).IConst(1).ISub()
	fact.InvokeStatic("demo/Rec", "fact", "(I)I")
	fact.IMul().IReturn()
	fact.Mark(base)
	fact.IConst(1).IReturn()

	inf := b.Method(classfile.AccPublic|classfile.AccStatic, "inf", "()V")
	inf.InvokeStatic("demo/Rec", "inf", "()V")
	inf.Return()

	vm := newTestVM(t, nil, b)
	v, _ := callStatic(t, vm, "demo/Rec", "fact", "(I)I", IntV(10))
	if v.Int() != 3628800 {
		t.Errorf("fact(10) = %d", v.Int())
	}
	_, thrown := callStatic(t, vm, "demo/Rec", "inf", "()V")
	if thrown == nil || thrown.Class.Name != "java/lang/StackOverflowError" {
		t.Errorf("inf thrown = %v", DescribeThrowable(thrown))
	}
}

func TestCheckcastAndInstanceof(t *testing.T) {
	b := classgen.NewClass("demo/Cast", "java/lang/Object")
	good := b.Method(classfile.AccPublic|classfile.AccStatic, "good", "()I")
	good.LdcString("s")
	good.CheckCast("java/lang/String")
	good.InvokeVirtual("java/lang/String", "length", "()I")
	good.IReturn()
	bad := b.Method(classfile.AccPublic|classfile.AccStatic, "bad", "()V")
	bad.NewDup("java/lang/Object")
	bad.InvokeSpecial("java/lang/Object", "<init>", "()V")
	bad.CheckCast("java/lang/String")
	bad.Pop()
	bad.Return()
	iof := b.Method(classfile.AccPublic|classfile.AccStatic, "iof", "()I")
	iof.LdcString("x").InstanceOf("java/lang/String")
	iof.AConstNull().InstanceOf("java/lang/String")
	iof.IAdd().IReturn()

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Cast", "good", "()I")
	if thrown != nil || v.Int() != 1 {
		t.Errorf("good = %d thrown=%v", v.Int(), thrown)
	}
	_, thrown = callStatic(t, vm, "demo/Cast", "bad", "()V")
	if thrown == nil || thrown.Class.Name != "java/lang/ClassCastException" {
		t.Errorf("bad thrown = %v", DescribeThrowable(thrown))
	}
	v, _ = callStatic(t, vm, "demo/Cast", "iof", "()I")
	if v.Int() != 1 {
		t.Errorf("instanceof sum = %d (string:1 + null:0)", v.Int())
	}
}

func TestGCCollectsGarbage(t *testing.T) {
	b := classgen.NewClass("demo/Gc", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "churn", "(I)V")
	head := m.Here()
	exit := m.NewLabel()
	m.ILoad(0).Branch(bytecode.Ifle, exit)
	m.NewDup("java/lang/Object")
	m.InvokeSpecial("java/lang/Object", "<init>", "()V")
	m.Pop()
	m.IInc(0, -1)
	m.Goto(head)
	m.Mark(exit)
	m.Return()

	vm := newTestVM(t, nil, b)
	vm.SetGCThreshold(512)
	before := vm.HeapCount()
	_, thrown := callStatic(t, vm, "demo/Gc", "churn", "(I)V", IntV(10000))
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	vm.GC()
	if vm.Stats.GCRuns == 0 {
		t.Error("GC never ran")
	}
	if vm.Stats.ObjectsCollected < 9000 {
		t.Errorf("collected only %d of 10000 garbage objects", vm.Stats.ObjectsCollected)
	}
	if vm.HeapCount() > before+100 {
		t.Errorf("heap grew from %d to %d despite GC", before, vm.HeapCount())
	}
}

func TestGCPreservesReachable(t *testing.T) {
	b := classgen.NewClass("demo/Keep", "java/lang/Object")
	b.Field(classfile.AccPublic|classfile.AccStatic, "kept", "Ljava/lang/Object;")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "set", "()V")
	m.NewDup("java/lang/Object")
	m.InvokeSpecial("java/lang/Object", "<init>", "()V")
	m.PutStatic("demo/Keep", "kept", "Ljava/lang/Object;")
	m.Return()
	g := b.Method(classfile.AccPublic|classfile.AccStatic, "get", "()Ljava/lang/Object;")
	g.GetStatic("demo/Keep", "kept", "Ljava/lang/Object;").AReturn()

	vm := newTestVM(t, nil, b)
	callStatic(t, vm, "demo/Keep", "set", "()V")
	vm.GC()
	v, _ := callStatic(t, vm, "demo/Keep", "get", "()Ljava/lang/Object;")
	if v.Ref() == nil {
		t.Fatal("statically reachable object was collected")
	}
}

func TestVirtualFileIO(t *testing.T) {
	b := classgen.NewClass("demo/Io", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "readFirst", "(Ljava/lang/String;)I")
	m.NewDup("java/io/FileInputStream")
	m.ALoad(0)
	m.InvokeSpecial("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
	m.AStore(1)
	m.ALoad(1).InvokeVirtual("java/io/FileInputStream", "read", "()I")
	m.IStore(2)
	m.ALoad(1).InvokeVirtual("java/io/FileInputStream", "close", "()V")
	m.ILoad(2).IReturn()

	vm := newTestVM(t, nil, b)
	vm.VFS.Write("/etc/data", []byte{0x41, 0x42})
	v, thrown := callStatic(t, vm, "demo/Io", "readFirst", "(Ljava/lang/String;)I",
		RefV(vm.InternString("/etc/data")))
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 0x41 {
		t.Errorf("read = %d", v.Int())
	}
	_, thrown = callStatic(t, vm, "demo/Io", "readFirst", "(Ljava/lang/String;)I",
		RefV(vm.InternString("/missing")))
	if thrown == nil || thrown.Class.Name != "java/io/FileNotFoundException" {
		t.Errorf("missing file thrown = %v", DescribeThrowable(thrown))
	}
}

func TestRTVerifierDefaultChecks(t *testing.T) {
	b := classgen.NewClass("demo/Link", "java/lang/Object")
	ok := b.Method(classfile.AccPublic|classfile.AccStatic, "ok", "()V")
	ok.LdcString("java/lang/System")
	ok.LdcString("out")
	ok.LdcString("Ljava/io/PrintStream;")
	ok.InvokeStatic("dvm/RTVerifier", "checkField", "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V")
	ok.Return()
	bad := b.Method(classfile.AccPublic|classfile.AccStatic, "bad", "()V")
	bad.LdcString("java/lang/System")
	bad.LdcString("nonesuch")
	bad.LdcString("I")
	bad.InvokeStatic("dvm/RTVerifier", "checkField", "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V")
	bad.Return()

	vm := newTestVM(t, nil, b)
	_, thrown := callStatic(t, vm, "demo/Link", "ok", "()V")
	if thrown != nil {
		t.Errorf("valid link check threw %s", DescribeThrowable(thrown))
	}
	_, thrown = callStatic(t, vm, "demo/Link", "bad", "()V")
	if thrown == nil || thrown.Class.Name != "java/lang/NoSuchFieldError" {
		t.Errorf("bad link check thrown = %v", DescribeThrowable(thrown))
	}
	if vm.Stats.LinkChecks != 2 {
		t.Errorf("LinkChecks = %d, want 2", vm.Stats.LinkChecks)
	}
}

func TestEnforceFailsClosedWithoutManager(t *testing.T) {
	b := classgen.NewClass("demo/Enf", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()V")
	m.LdcString("file.open")
	m.LdcString("/etc/passwd")
	m.InvokeStatic("dvm/Enforce", "check", "(Ljava/lang/String;Ljava/lang/String;)V")
	m.Return()
	vm := newTestVM(t, nil, b)
	_, thrown := callStatic(t, vm, "demo/Enf", "f", "()V")
	if thrown == nil || thrown.Class.Name != "java/lang/SecurityException" {
		t.Errorf("thrown = %v", DescribeThrowable(thrown))
	}
}

func TestHashtableAndVector(t *testing.T) {
	b := classgen.NewClass("demo/Coll", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()I")
	m.NewDup("java/util/Hashtable")
	m.InvokeSpecial("java/util/Hashtable", "<init>", "()V")
	m.AStore(0)
	m.ALoad(0).LdcString("k").LdcString("v")
	m.InvokeVirtual("java/util/Hashtable", "put", "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;")
	m.Pop()
	m.ALoad(0).LdcString("k")
	m.InvokeVirtual("java/util/Hashtable", "get", "(Ljava/lang/Object;)Ljava/lang/Object;")
	m.CheckCast("java/lang/String")
	m.InvokeVirtual("java/lang/String", "length", "()I")
	m.ALoad(0).InvokeVirtual("java/util/Hashtable", "size", "()I")
	m.IAdd()
	m.IReturn()
	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Coll", "f", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 2 {
		t.Errorf("f = %d, want 2 (len(v)=1 + size=1)", v.Int())
	}
}

func TestJsrRetSubroutine(t *testing.T) {
	// Emulates the javac "finally" idiom: jsr to a subroutine that
	// increments a counter, then return.
	b := classgen.NewClass("demo/Jsr", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()I")
	sub := m.NewLabel()
	after := m.NewLabel()
	m.IConst(10).IStore(0)
	m.Branch(bytecode.Jsr, sub)
	m.Goto(after)
	m.Mark(sub)
	m.AStore(1) // return address
	m.IInc(0, 5)
	m.Raw(bytecode.Inst{Op: bytecode.Ret, Index: 1})
	m.Mark(after)
	m.ILoad(0).IReturn()

	vm := newTestVM(t, nil, b)
	v, thrown := callStatic(t, vm, "demo/Jsr", "f", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 15 {
		t.Errorf("f = %d, want 15", v.Int())
	}
}

func TestRunMainPassesArgs(t *testing.T) {
	b := classgen.NewClass("demo/Args", "java/lang/Object")
	b.Field(classfile.AccPublic|classfile.AccStatic, "got", "I")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	m.ALoad(0).ArrayLength()
	m.ALoad(0).IConst(0).Inst(bytecode.Aaload)
	m.CheckCast("java/lang/String")
	m.InvokeVirtual("java/lang/String", "length", "()I")
	m.IAdd()
	m.PutStatic("demo/Args", "got", "I")
	m.Return()

	vm := newTestVM(t, nil, b)
	thrown, err := vm.RunMain("demo/Args", []string{"abc", "d"})
	if err != nil || thrown != nil {
		t.Fatalf("RunMain: %v / %v", err, DescribeThrowable(thrown))
	}
	c, _ := vm.Class("demo/Args")
	_, slot, _ := c.StaticSlot("got", "I")
	if got := c.GetStatic(slot).Int(); got != 5 {
		t.Errorf("main saw %d, want 5 (2 args + len 3)", got)
	}
}

func TestMaxInstructionsBudget(t *testing.T) {
	b := classgen.NewClass("demo/Spin", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "spin", "()V")
	h := m.Here()
	m.Goto(h)
	m.Return()
	vm := newTestVM(t, nil, b)
	vm.MaxInstructions = 10000
	_, _, err := vm.MainThread().InvokeByName("demo/Spin", "spin", "()V", nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want budget exhaustion", err)
	}
}

func TestStackIntrospectionSupport(t *testing.T) {
	b := classgen.NewClass("demo/Walk", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "depth", "()I")
	m.InvokeStatic("demo/Walk", "helper", "()I")
	m.IReturn()
	h := b.Method(classfile.AccPublic|classfile.AccStatic, "helper", "()I")
	h.IConst(0).IReturn()

	vm := newTestVM(t, nil, b)
	var classesSeen []string
	vm.RegisterNative("demo/Walk", "helper", "()I",
		func(t *Thread, args []Value) (Value, *Object, error) {
			for _, c := range t.FrameClasses() {
				classesSeen = append(classesSeen, c.Name)
			}
			return IntV(int32(t.Depth())), nil, nil
		})
	v, thrown := callStatic(t, vm, "demo/Walk", "depth", "()I")
	if thrown != nil {
		t.Fatalf("thrown: %s", DescribeThrowable(thrown))
	}
	if v.Int() != 2 {
		t.Errorf("depth = %d, want 2", v.Int())
	}
	if len(classesSeen) != 2 || classesSeen[0] != "demo/Walk" {
		t.Errorf("classesSeen = %v", classesSeen)
	}
}
