package classgen

import (
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

func TestBuildHelloClass(t *testing.T) {
	b := NewClass("demo/Hello", "java/lang/Object")
	b.DefaultInit()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	m.GetStatic("java/lang/System", "out", "Ljava/io/PrintStream;")
	m.LdcString("hello world")
	m.InvokeVirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	m.Return()

	data, err := b.BuildBytes()
	if err != nil {
		t.Fatalf("BuildBytes: %v", err)
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatalf("Parse of generated class: %v", err)
	}
	if cf.Name() != "demo/Hello" {
		t.Errorf("Name = %q", cf.Name())
	}
	mm := cf.FindMethod("main", "([Ljava/lang/String;)V")
	if mm == nil {
		t.Fatal("main not found")
	}
	code, err := cf.CodeOf(mm)
	if err != nil || code == nil {
		t.Fatalf("CodeOf: %v", err)
	}
	if code.MaxStack != 2 {
		t.Errorf("MaxStack = %d, want 2", code.MaxStack)
	}
	if code.MaxLocals != 1 {
		t.Errorf("MaxLocals = %d, want 1 (the args parameter)", code.MaxLocals)
	}
	if _, err := bytecode.Decode(code.Bytecode); err != nil {
		t.Errorf("generated bytecode does not decode: %v", err)
	}
}

func TestIConstEncodingSelection(t *testing.T) {
	b := NewClass("demo/C", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()V")
	m.IConst(0)
	m.Pop()
	m.IConst(5)
	m.Pop()
	m.IConst(-1)
	m.Pop()
	m.IConst(100)
	m.Pop()
	m.IConst(20000)
	m.Pop()
	m.IConst(1 << 20)
	m.Pop()
	m.Return()
	cf := b.MustBuild()
	code, err := cf.CodeOf(cf.FindMethod("f", "()V"))
	if err != nil {
		t.Fatal(err)
	}
	insts, err := bytecode.Decode(code.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []bytecode.Opcode{
		bytecode.Iconst0, bytecode.Pop,
		bytecode.Iconst5, bytecode.Pop,
		bytecode.IconstM1, bytecode.Pop,
		bytecode.Bipush, bytecode.Pop,
		bytecode.Sipush, bytecode.Pop,
		bytecode.Ldc, bytecode.Pop,
		bytecode.Return,
	}
	if len(insts) != len(wantOps) {
		t.Fatalf("got %d insts", len(insts))
	}
	for i, w := range wantOps {
		if insts[i].Op != w {
			t.Errorf("inst %d = %s, want %s", i, insts[i].Op.Name(), w.Name())
		}
	}
}

func TestLabelsAndLoop(t *testing.T) {
	// static int sum(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
	b := NewClass("demo/Loop", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "sum", "(I)I")
	m.IConst(0).IStore(1) // s = 0
	m.IConst(0).IStore(2) // i = 0
	head := m.Here()
	exit := m.NewLabel()
	m.ILoad(2).ILoad(0).Branch(bytecode.IfIcmpge, exit)
	m.ILoad(1).ILoad(2).IAdd().IStore(1)
	m.IInc(2, 1)
	m.Goto(head)
	m.Mark(exit)
	m.ILoad(1).IReturn()

	cf := b.MustBuild()
	code, err := cf.CodeOf(cf.FindMethod("sum", "(I)I"))
	if err != nil {
		t.Fatal(err)
	}
	if code.MaxLocals != 3 {
		t.Errorf("MaxLocals = %d, want 3", code.MaxLocals)
	}
	if code.MaxStack != 2 {
		t.Errorf("MaxStack = %d, want 2", code.MaxStack)
	}
	insts, err := bytecode.Decode(code.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	// Verify back edge: the goto targets the loop head (if_icmpge inst).
	var gotoInst *bytecode.Inst
	for i := range insts {
		if insts[i].Op == bytecode.Goto {
			gotoInst = &insts[i]
		}
	}
	if gotoInst == nil {
		t.Fatal("no goto emitted")
	}
	if insts[gotoInst.Target].Op != bytecode.Iload2 {
		t.Errorf("goto target = %s, want iload_2 (loop head)", insts[gotoInst.Target].Op.Name())
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := NewClass("demo/Bad", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()V")
	l := m.NewLabel()
	m.Goto(l)
	m.Return()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with unbound label")
	}
}

func TestDoubleMarkFails(t *testing.T) {
	b := NewClass("demo/Bad2", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()V")
	l := m.NewLabel()
	m.Mark(l)
	m.Nop()
	m.Mark(l)
	m.Return()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with doubly marked label")
	}
}

func TestExceptionHandlerEncoding(t *testing.T) {
	b := NewClass("demo/Try", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "()I")
	start := m.Here()
	m.IConst(1)
	m.IReturn()
	end := m.NewLabel()
	m.Mark(end)
	handler := m.Here()
	m.Pop()
	m.IConst(2)
	m.IReturn()
	m.Handler(start, end, handler, "java/lang/Exception")

	cf := b.MustBuild()
	code, err := cf.CodeOf(cf.FindMethod("f", "()I"))
	if err != nil {
		t.Fatal(err)
	}
	if len(code.Handlers) != 1 {
		t.Fatalf("handlers = %d", len(code.Handlers))
	}
	h := code.Handlers[0]
	if h.StartPC != 0 {
		t.Errorf("StartPC = %d", h.StartPC)
	}
	if h.EndPC <= h.StartPC {
		t.Errorf("EndPC = %d not past StartPC", h.EndPC)
	}
	name, err := cf.Pool.ClassName(h.CatchType)
	if err != nil || name != "java/lang/Exception" {
		t.Errorf("CatchType resolves to %q, %v", name, err)
	}
	// MaxStack must account for the handler's incoming exception.
	if code.MaxStack < 1 {
		t.Errorf("MaxStack = %d", code.MaxStack)
	}
}

func TestSwitchBuilders(t *testing.T) {
	b := NewClass("demo/Sw", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "f", "(I)I")
	def := m.NewLabel()
	a1 := m.NewLabel()
	a2 := m.NewLabel()
	m.ILoad(0)
	m.TableSwitch(10, def, a1, a2)
	m.Mark(a1)
	m.IConst(1).IReturn()
	m.Mark(a2)
	m.IConst(2).IReturn()
	m.Mark(def)
	m.IConst(0).IReturn()

	m2 := b.Method(classfile.AccPublic|classfile.AccStatic, "g", "(I)I")
	def2 := m2.NewLabel()
	b1 := m2.NewLabel()
	m2.ILoad(0)
	m2.LookupSwitch(def2, []int32{-3, 99}, []Label{b1, b1})
	m2.Mark(b1)
	m2.IConst(1).IReturn()
	m2.Mark(def2)
	m2.IConst(0).IReturn()

	cf := b.MustBuild()
	for _, name := range []string{"f", "g"} {
		code, err := cf.CodeOf(cf.FindMethod(name, "(I)I"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bytecode.Decode(code.Bytecode); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGeneratedClassReparses(t *testing.T) {
	b := NewClass("demo/Rich", "java/lang/Object")
	b.AddInterface("java/lang/Runnable")
	b.Field(classfile.AccPrivate, "x", "I")
	b.Field(classfile.AccPrivate|classfile.AccStatic, "s", "Ljava/lang/String;")
	b.DefaultInit()
	run := b.Method(classfile.AccPublic, "run", "()V")
	run.ALoad(0)
	run.Dup()
	run.GetField("demo/Rich", "x", "I")
	run.IConst(1)
	run.IAdd()
	run.PutField("demo/Rich", "x", "I")
	run.Return()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(data2) {
		t.Errorf("re-encode size differs: %d vs %d", len(data), len(data2))
	}
}
