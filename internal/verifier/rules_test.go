package verifier

import (
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// TestRuleTableMatchesStackEffect checks phase 3's rule table against
// internal/bytecode's own opcode metadata, written separately: the slots
// a rule pops and pushes must be the opcode's stack effect, its branch
// and ends flags the opcode's control flow, and a load's or store's
// local the one its own short forms name, so that a typo in either table
// fails here.
func TestRuleTableMatchesStackEffect(t *testing.T) {
	n := 0
	for op, r := range rules {
		if r == nil {
			continue
		}
		n++
		op := bytecode.Opcode(op)
		pop, push, err := bytecode.StackEffect(bytecode.Inst{Op: op}, nil)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		popped := len(r.pop)
		for _, k := range r.pop {
			if k == vtLong || k == vtDouble {
				popped++
			}
		}
		if popped != pop || len(r.push) != push {
			t.Errorf("%s: rule pops %d and pushes %d slots, stack effect is %d and %d", op.Name(), popped, len(r.push), pop, push)
		}
		if r.branch != op.IsBranch() || r.ends != op.EndsFlow() {
			t.Errorf("%s: rule branch=%v ends=%v, opcode branch=%v ends=%v", op.Name(), r.branch, r.ends, op.IsBranch(), op.EndsFlow())
		}
		// iload and iload_0 … iload_3 find their local through iload_0.
		if family, _, _ := strings.Cut(op.Name(), "_"); r.local != 0 && r.local.Name() != family+"_0" {
			t.Errorf("%s: rule finds the local through %s", op.Name(), r.local.Name())
		}
	}
	if n == 0 {
		t.Fatal("the rule table is empty")
	}
}

// TestHandlerEntryAboveMaxStackZero pins the one case where a rule that
// pushes nothing must not check the stack height: a handler's entry
// holds the exception even when max_stack is 0, and phase 3 has always
// let a goto there pass.
func TestHandlerEntryAboveMaxStackZero(t *testing.T) {
	cf := classgen.NewClass("app/H", "java/lang/Object").MustBuild()
	// 0: return, covered by a handler at 1: goto 2; 2: athrow.
	code, pcs, err := bytecode.Encode([]bytecode.Inst{
		{Op: bytecode.Return, Target: -1},
		{Op: bytecode.Goto, Target: 2},
		{Op: bytecode.Athrow, Target: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Member{
		AccessFlags:     classfile.AccPublic | classfile.AccStatic,
		NameIndex:       cf.Pool.AddUtf8("m"),
		DescriptorIndex: cf.Pool.AddUtf8("()V"),
	}
	if err := cf.SetCode(m, &classfile.Code{Bytecode: code, Handlers: []classfile.ExceptionHandler{
		{StartPC: 0, EndPC: uint16(pcs[1]), HandlerPC: uint16(pcs[1])},
	}}); err != nil {
		t.Fatal(err)
	}
	cf.Methods = append(cf.Methods, m)
	if _, err := Verify(cf); err != nil {
		t.Fatalf("handler entry above max_stack 0: %v", err)
	}
}
