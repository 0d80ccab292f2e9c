package bytecode

import (
	"bytes"
	"slices"
	"testing"

	"dvm/internal/classfile"
)

func mustDecode(t *testing.T, code []byte) []Inst {
	t.Helper()
	insts, err := Decode(code)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return insts
}

func TestDecodeSimpleSequence(t *testing.T) {
	code := []byte{
		byte(Iconst2),
		byte(Bipush), 0x7F,
		byte(Iadd),
		byte(Ireturn),
	}
	insts := mustDecode(t, code)
	if len(insts) != 4 {
		t.Fatalf("got %d instructions", len(insts))
	}
	if insts[1].Op != Bipush || insts[1].Const != 127 {
		t.Errorf("insts[1] = %v", insts[1])
	}
	if insts[3].Op != Ireturn || !insts[3].Op.IsReturn() {
		t.Errorf("insts[3] = %v", insts[3])
	}
}

func TestDecodeBranchTargets(t *testing.T) {
	// 0: iload_0 ; 1: ifeq +5 (-> 6) ; 4: iconst_1 ; 5: ireturn ; 6: iconst_0 ; 7: ireturn
	code := []byte{
		byte(Iload0),
		byte(Ifeq), 0x00, 0x05,
		byte(Iconst1),
		byte(Ireturn),
		byte(Iconst0),
		byte(Ireturn),
	}
	insts := mustDecode(t, code)
	if insts[1].Target != 4 {
		t.Fatalf("ifeq target index = %d, want 4 (iconst_0)", insts[1].Target)
	}
	if insts[insts[1].Target].Op != Iconst0 {
		t.Fatalf("target op = %v", insts[insts[1].Target].Op)
	}
}

func TestDecodeRejectsMidInstructionBranch(t *testing.T) {
	// ifeq jumps into the middle of the bipush operand.
	code := []byte{
		byte(Ifeq), 0x00, 0x04,
		byte(Bipush), 0x10,
		byte(Return),
	}
	if _, err := Decode(code); err == nil {
		t.Fatal("accepted branch into instruction middle")
	}
}

func TestDecodeRejectsOutOfRangeBranch(t *testing.T) {
	code := []byte{byte(Goto), 0x00, 0x40, byte(Return)}
	if _, err := Decode(code); err == nil {
		t.Fatal("accepted branch past end of code")
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":                 {},
		"unassigned opcode":     {0xba},
		"truncated bipush":      {byte(Bipush)},
		"truncated invokevirt":  {byte(Invokevirtual), 0x00},
		"truncated wide":        {byte(Wide)},
		"wide on iadd":          {byte(Wide), byte(Iadd)},
		"bad newarray type":     {byte(Newarray), 99, byte(Return)},
		"multianewarray 0 dims": {byte(Multianewarray), 0, 1, 0, byte(Return)},
		"nonzero iface operand": {byte(Invokeinterface), 0, 1, 1, 7, byte(Return)},
	}
	for name, code := range cases {
		if _, err := Decode(code); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeWideForms(t *testing.T) {
	code := []byte{
		byte(Wide), byte(Iload), 0x01, 0x00,
		byte(Wide), byte(Iinc), 0x01, 0x00, 0x7F, 0xFF,
		byte(Return),
	}
	insts := mustDecode(t, code)
	if !insts[0].Wide || insts[0].Index != 256 {
		t.Errorf("wide iload = %+v", insts[0])
	}
	if !insts[1].Wide || insts[1].Index != 256 || insts[1].Const != 32767 {
		t.Errorf("wide iinc = %+v", insts[1])
	}
}

func TestTableswitchRoundTrip(t *testing.T) {
	// Build: iload_0; tableswitch low=1 {arm1, arm2} default; arms return consts.
	insts := []Inst{
		{Op: Iload0, Target: -1},
		{Op: Tableswitch, Switch: &Switch{Low: 1, Default: 4, Targets: []int{2, 3}}},
		{Op: Iconst1, Target: -1},
		{Op: Iconst2, Target: -1},
		{Op: Iconst0, Target: -1},
		{Op: Ireturn, Target: -1},
	}
	code, pcs, err := Encode(insts)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(pcs) != len(insts) {
		t.Fatalf("pcs length %d", len(pcs))
	}
	back := mustDecode(t, code)
	if len(back) != len(insts) {
		t.Fatalf("decode returned %d insts, want %d", len(back), len(insts))
	}
	sw := back[1].Switch
	if sw == nil || sw.Low != 1 || sw.Default != 4 || len(sw.Targets) != 2 ||
		sw.Targets[0] != 2 || sw.Targets[1] != 3 {
		t.Fatalf("switch round trip = %+v", sw)
	}
	// Padding must make the default offset field 4-aligned.
	if (pcs[1]+1)%4 != 0 {
		// pad bytes inserted; verify decode saw canonical zero padding by
		// the fact decode succeeded. Also re-encode must be identical.
		code2, _, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(code, code2) {
			t.Fatal("tableswitch re-encode differs")
		}
	}
}

func TestLookupswitchRoundTrip(t *testing.T) {
	insts := []Inst{
		{Op: Iload0, Target: -1},
		{Op: Lookupswitch, Switch: &Switch{Default: 4, Keys: []int32{-5, 100}, Targets: []int{2, 3}}},
		{Op: Iconst1, Target: -1},
		{Op: Iconst2, Target: -1},
		{Op: Iconst0, Target: -1},
		{Op: Ireturn, Target: -1},
	}
	code, _, err := Encode(insts)
	if err != nil {
		t.Fatal(err)
	}
	back := mustDecode(t, code)
	sw := back[1].Switch
	if sw.Keys[0] != -5 || sw.Keys[1] != 100 || sw.Targets[1] != 3 {
		t.Fatalf("lookupswitch round trip = %+v", sw)
	}
}

func TestDecodeRejectsUnsortedLookupswitch(t *testing.T) {
	insts := []Inst{
		{Op: Iload0, Target: -1},
		{Op: Lookupswitch, Switch: &Switch{Default: 2, Keys: []int32{100, -5}, Targets: []int{2, 2}}},
		{Op: Return, Target: -1},
	}
	code, _, err := Encode(insts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(code); err == nil {
		t.Fatal("accepted unsorted lookupswitch keys")
	}
}

func TestEncodePromotesWideOperands(t *testing.T) {
	insts := []Inst{
		{Op: Iload, Index: 300, Target: -1},
		{Op: Iinc, Index: 2, Const: 1000, Target: -1},
		{Op: Ldc, Index: 300, Target: -1},
		{Op: Return, Target: -1},
	}
	code, _, err := Encode(insts)
	if err != nil {
		t.Fatal(err)
	}
	back := mustDecode(t, code)
	if !back[0].Wide || back[0].Index != 300 {
		t.Errorf("iload not widened: %+v", back[0])
	}
	if !back[1].Wide || back[1].Const != 1000 {
		t.Errorf("iinc not widened: %+v", back[1])
	}
	if back[2].Op != LdcW || back[2].Index != 300 {
		t.Errorf("ldc not promoted to ldc_w: %+v", back[2])
	}
}

func TestEncodeWidensLongGoto(t *testing.T) {
	// goto over ~40000 bytes of nops must become goto_w.
	insts := make([]Inst, 0, 40003)
	insts = append(insts, Inst{Op: Goto, Target: 40001})
	for i := 0; i < 40000; i++ {
		insts = append(insts, Inst{Op: Nop, Target: -1})
	}
	insts = append(insts, Inst{Op: Return, Target: -1})
	code, _, err := Encode(insts)
	if err != nil {
		t.Fatal(err)
	}
	if Opcode(code[0]) != GotoW {
		t.Fatalf("first opcode = %v, want goto_w", Opcode(code[0]).Name())
	}
	back, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Target != 40001 {
		t.Fatalf("goto_w target = %d", back[0].Target)
	}
}

func TestEncodeRejectsOverlongConditional(t *testing.T) {
	insts := make([]Inst, 0, 40003)
	insts = append(insts, Inst{Op: Ifeq, Target: 40001})
	for i := 0; i < 40000; i++ {
		insts = append(insts, Inst{Op: Nop, Target: -1})
	}
	insts = append(insts, Inst{Op: Return, Target: -1})
	if _, _, err := Encode(insts); err == nil {
		t.Fatal("accepted conditional branch overflowing 16 bits")
	}
}

func TestEncodeRejectsBadTargets(t *testing.T) {
	if _, _, err := Encode([]Inst{{Op: Goto, Target: 5}, {Op: Return, Target: -1}}); err == nil {
		t.Fatal("accepted out-of-range branch target")
	}
	if _, _, err := Encode([]Inst{{Op: Tableswitch}, {Op: Return, Target: -1}}); err == nil {
		t.Fatal("accepted switch without payload")
	}
	if _, _, err := Encode(nil); err == nil {
		t.Fatal("accepted empty instruction list")
	}
}

func TestDecodeEncodeRoundTripEveryKind(t *testing.T) {
	pool := classfile.NewConstPool()
	mref := pool.AddMethodref("a/B", "m", "(I)I")
	iref := pool.AddInterfaceMethodref("a/I", "n", "()V")
	fref := pool.AddFieldref("a/B", "f", "J")
	cls := pool.AddClass("a/B")

	insts := []Inst{
		{Op: Nop, Target: -1},
		{Op: Bipush, Const: -7, Target: -1},
		{Op: Sipush, Const: -30000, Target: -1},
		{Op: Ldc, Index: 1, Target: -1},
		{Op: Iload, Index: 3, Target: -1},
		{Op: Iinc, Index: 2, Const: -1, Target: -1},
		{Op: IfIcmplt, Target: 0},
		{Op: Getstatic, Index: fref, Target: -1},
		{Op: Invokevirtual, Index: mref, Target: -1},
		{Op: Invokeinterface, Index: iref, Count: 1, Target: -1},
		{Op: New, Index: cls, Target: -1},
		{Op: Newarray, ArrayType: TInt, Target: -1},
		{Op: Multianewarray, Index: cls, Dims: 2, Target: -1},
		{Op: GotoW, Target: 0},
		{Op: Return, Target: -1},
	}
	code, _, err := Encode(insts)
	if err != nil {
		t.Fatal(err)
	}
	back := mustDecode(t, code)
	if len(back) != len(insts) {
		t.Fatalf("%d insts back, want %d", len(back), len(insts))
	}
	for i := range insts {
		g, w := back[i], insts[i]
		if g.Op != w.Op || g.Index != w.Index || g.Const != w.Const ||
			g.ArrayType != w.ArrayType || g.Dims != w.Dims {
			t.Errorf("inst %d: got %+v want %+v", i, g, w)
		}
	}
	if back[6].Target != 0 || back[13].Target != 0 {
		t.Errorf("branch targets: %d, %d", back[6].Target, back[13].Target)
	}
}

func TestPCIndex(t *testing.T) {
	code := []byte{byte(Iconst0), byte(Bipush), 5, byte(Iadd), byte(Ireturn)}
	insts, x, err := DecodeWithIndex(nil, code, false)
	if err != nil {
		t.Fatal(err)
	}
	for pc, want := range []int{0, 1, -1, 2, 3} {
		got, ok := x.At(pc)
		if ok != (want >= 0) || (ok && got != want) {
			t.Errorf("At(%d) = %d, %v; want %d", pc, got, ok, want)
		}
	}
	for _, pc := range []int{-1, len(code), len(code) + 7} {
		if _, ok := x.At(pc); ok {
			t.Errorf("At(%d) found an instruction outside the code", pc)
		}
	}
	if rebuilt := IndexPCs(nil, insts, len(code)); !slices.Equal(rebuilt, x) {
		t.Errorf("IndexPCs = %v, decoder's index = %v", rebuilt, x)
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !Goto.EndsFlow() || !Athrow.EndsFlow() || !Ireturn.EndsFlow() || !Tableswitch.EndsFlow() {
		t.Error("EndsFlow misses a terminator")
	}
	if Ifeq.EndsFlow() {
		t.Error("ifeq must fall through")
	}
	if !Invokestatic.IsInvoke() || Getfield.IsInvoke() {
		t.Error("IsInvoke wrong")
	}
	if !Putfield.IsFieldAccess() || Iadd.IsFieldAccess() {
		t.Error("IsFieldAccess wrong")
	}
	if Opcode(0xba).Valid() || Opcode(0xcb).Valid() {
		t.Error("holes in opcode space must be invalid")
	}
	if !Wide.Valid() || Wide.OperandKind() != KindWidePfx {
		t.Error("wide prefix metadata wrong")
	}
}
