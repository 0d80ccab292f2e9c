package bytecode

import (
	"strings"
	"testing"

	"dvm/internal/classfile"
)

func TestParseTypeBasics(t *testing.T) {
	cases := []struct {
		in    string
		kind  BaseKind
		slots int
		str   string
	}{
		{"I", KInt, 1, "I"},
		{"J", KLong, 2, "J"},
		{"D", KDouble, 2, "D"},
		{"Z", KBoolean, 1, "Z"},
		{"Ljava/lang/String;", KObject, 1, "Ljava/lang/String;"},
		{"[I", KArray, 1, "[I"},
		{"[[Ljava/lang/Object;", KArray, 1, "[[Ljava/lang/Object;"},
	}
	for _, c := range cases {
		ty, err := ParseType(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if ty.Kind != c.kind || ty.Slots() != c.slots || ty.String() != c.str {
			t.Errorf("%q: got kind=%v slots=%d str=%q", c.in, ty.Kind, ty.Slots(), ty.String())
		}
	}
}

func TestParseTypeErrors(t *testing.T) {
	bad := []string{"", "V", "X", "L;", "Lfoo", "Ljava.lang.String;", "[", "II"}
	for _, in := range bad {
		if _, err := ParseType(in); err == nil {
			t.Errorf("ParseType(%q) succeeded", in)
		}
	}
}

func TestParseMethodType(t *testing.T) {
	mt, err := ParseMethodType("(IJLjava/lang/String;[D)V")
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Params) != 4 {
		t.Fatalf("params = %d", len(mt.Params))
	}
	if mt.ParamSlots() != 1+2+1+1 {
		t.Errorf("ParamSlots = %d", mt.ParamSlots())
	}
	if mt.Ret.Kind != KVoid || mt.Ret.Slots() != 0 {
		t.Errorf("ret = %+v", mt.Ret)
	}
	if mt.String() != "(IJLjava/lang/String;[D)V" {
		t.Errorf("String = %q", mt.String())
	}
}

func TestParseMethodTypeErrors(t *testing.T) {
	bad := []string{"", "I", "()", "(V)V", "()VV", "(I", "()Lfoo"}
	for _, in := range bad {
		if _, err := ParseMethodType(in); err == nil {
			t.Errorf("ParseMethodType(%q) succeeded", in)
		}
	}
}

func TestNestedArrayType(t *testing.T) {
	ty, err := ParseType("[[[I")
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for ty.Kind == KArray {
		depth++
		ty = *ty.Elem
	}
	if depth != 3 || ty.Kind != KInt {
		t.Errorf("depth=%d elem=%v", depth, ty.Kind)
	}
}

func TestStackEffectFixed(t *testing.T) {
	cases := []struct {
		op        Opcode
		pop, push int
	}{
		{Iadd, 2, 1},
		{Ladd, 4, 2},
		{Dup, 1, 2},
		{Pop2, 2, 0},
		{AconstNull, 0, 1},
		{Lconst0, 0, 2},
		{Lcmp, 4, 1},
		{Iastore, 3, 0},
		{Return, 0, 0},
	}
	for _, c := range cases {
		pop, push, err := StackEffect(Inst{Op: c.op}, nil)
		if err != nil {
			t.Errorf("%s: %v", c.op.Name(), err)
			continue
		}
		if pop != c.pop || push != c.push {
			t.Errorf("%s: got %d/%d want %d/%d", c.op.Name(), pop, push, c.pop, c.push)
		}
	}
}

func TestStackEffectDescriptorDependent(t *testing.T) {
	pool := classfile.NewConstPool()
	fI := pool.AddFieldref("a/B", "x", "I")
	fJ := pool.AddFieldref("a/B", "y", "J")
	mv := pool.AddMethodref("a/B", "m", "(IJ)D")
	ms := pool.AddMethodref("a/B", "s", "(Ljava/lang/String;)V")

	check := func(in Inst, pop, push int) {
		t.Helper()
		gp, gq, err := StackEffect(in, pool)
		if err != nil {
			t.Fatalf("%s: %v", in.Op.Name(), err)
		}
		if gp != pop || gq != push {
			t.Errorf("%s: got %d/%d want %d/%d", in.Op.Name(), gp, gq, pop, push)
		}
	}
	check(Inst{Op: Getstatic, Index: fI}, 0, 1)
	check(Inst{Op: Getstatic, Index: fJ}, 0, 2)
	check(Inst{Op: Putfield, Index: fJ}, 3, 0)
	check(Inst{Op: Getfield, Index: fI}, 1, 1)
	check(Inst{Op: Invokevirtual, Index: mv}, 4, 2) // this + I + J(2) -> D(2)
	check(Inst{Op: Invokestatic, Index: ms}, 1, 0)
	check(Inst{Op: Multianewarray, Index: 1, Dims: 3}, 3, 1)
}

func TestMaxStackStraightLine(t *testing.T) {
	insts := []Inst{
		{Op: Iconst1, Target: -1},
		{Op: Iconst2, Target: -1},
		{Op: Iadd, Target: -1},
		{Op: Ireturn, Target: -1},
	}
	h, err := MaxStack(nil, insts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Errorf("MaxStack = %d, want 2", h)
	}
}

func TestMaxStackBranchJoin(t *testing.T) {
	// if (x) push 1 else push 2; both paths meet at ireturn with height 1.
	insts := []Inst{
		{Op: Iload0, Target: -1},
		{Op: Ifeq, Target: 4},
		{Op: Iconst1, Target: -1},
		{Op: Goto, Target: 5},
		{Op: Iconst2, Target: -1},
		{Op: Ireturn, Target: -1},
	}
	h, err := MaxStack(nil, insts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Errorf("MaxStack = %d, want 1", h)
	}
}

func TestMaxStackHandlerEntry(t *testing.T) {
	// Handler at index 1 starts with the thrown exception on the stack.
	insts := []Inst{
		{Op: Return, Target: -1},
		{Op: Athrow, Target: -1},
	}
	h, err := MaxStack(nil, insts, nil, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Errorf("MaxStack = %d, want 1", h)
	}
}

func TestMaxStackUnderflow(t *testing.T) {
	insts := []Inst{
		{Op: Iadd, Target: -1},
		{Op: Ireturn, Target: -1},
	}
	if _, err := MaxStack(nil, insts, nil, nil); err == nil {
		t.Fatal("underflow not detected")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	pool := classfile.NewConstPool()
	mref := pool.AddMethodref("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	insts := []Inst{
		{Op: Ldc, Index: pool.AddString("hi"), Target: -1},
		{Op: Invokevirtual, Index: mref, Target: -1},
		{Op: Return, Target: -1},
	}
	code, _, err := Encode(insts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Disassemble(code, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ldc", "invokevirtual", "println", "return"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
