package verifier

import (
	"errors"
	"math/rand"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// fixpointMaxStack is the max_stack computation bytecode.MaxStack
// replaced, kept as its reference: heights propagated along every edge, a
// jsr's fall-through one above its caller, and an instruction queued
// again whenever it is reached higher than before. It gives up after
// limit steps (done false): on a loop that gains height on every lap it
// would never stop.
func fixpointMaxStack(insts []bytecode.Inst, pool *classfile.ConstPool, handlersAt []int, limit int) (maxH int, err error, done bool) {
	n := len(insts)
	reached := make([]int32, n) // 1 + the greatest entry height seen, 0 before the first visit
	var work []int32
	push := func(idx, h int) {
		if idx >= 0 && idx < n && int(reached[idx]) <= h {
			reached[idx] = int32(h) + 1
			work = append(work, int32(idx))
		}
	}
	push(0, 0)
	for _, h := range handlersAt {
		push(h, 1)
	}
	for steps := 0; len(work) > 0; steps++ {
		if steps == limit {
			return 0, nil, false
		}
		idx := int(work[len(work)-1])
		work = work[:len(work)-1]
		h := int(reached[idx]) - 1
		in := &insts[idx]
		pop, pushN, err := bytecode.StackEffect(*in, pool)
		if err != nil {
			return 0, err, true
		}
		after := h - pop + pushN
		maxH = max(maxH, h, after)
		if after < 0 {
			return 0, errUnderflow, true
		}
		if in.Op.IsBranch() {
			push(in.Target, after)
		}
		if in.Op.IsSwitch() {
			push(in.Switch.Default, after)
			for _, t := range in.Switch.Targets {
				push(t, after)
			}
		}
		if !in.Op.EndsFlow() {
			push(idx+1, after)
		}
	}
	return maxH, nil, true
}

var errUnderflow = errors.New("stack underflow")

// TestMaxStackMatchesTheFixpoint holds bytecode.MaxStack to the fixpoint
// it replaced on every method of the corpus, of every verdict-golden
// mutant the verifier accepts, and of generated methods that call
// subroutines, some of them inside loops. Wherever the fixpoint returns
// within its step cap, MaxStack returns the same height, or an error
// where it does; where the fixpoint never returns — a subroutine call on
// a loop — MaxStack still returns a height, and no corpus class or
// accepted mutant is such a method.
func TestMaxStackMatchesTheFixpoint(t *testing.T) {
	check := func(what string, insts []bytecode.Inst, pool *classfile.ConstPool, handlers []int) (compared bool) {
		t.Helper()
		want, wantErr, done := fixpointMaxStack(insts, pool, handlers, 1<<16+64*len(insts))
		got, err := bytecode.MaxStack(nil, insts, pool, handlers)
		switch {
		case !done && err != nil:
			t.Errorf("%s: the fixpoint never returns, and MaxStack fails: %v", what, err)
		case done && (err != nil) != (wantErr != nil):
			t.Errorf("%s: MaxStack error %v, the fixpoint's %v", what, err, wantErr)
		case done && got != want:
			t.Errorf("%s: MaxStack %d, the fixpoint %d", what, got, want)
		}
		return done
	}
	checkClass := func(what string, cf *classfile.ClassFile) {
		t.Helper()
		for _, m := range cf.Methods {
			ed, err := rewrite.DecodeMethod(cf, m)
			if err != nil || ed == nil {
				continue
			}
			handlers := make([]int, len(ed.Handlers))
			for i, h := range ed.Handlers {
				handlers[i] = h.Target
			}
			if !check(what+"."+cf.MemberName(m), ed.Insts, cf.Pool, handlers) {
				t.Errorf("%s.%s: the fixpoint did not return", what, cf.MemberName(m))
			}
		}
	}

	classes := 0
	for _, spec := range append(workload.Benchmarks(), workload.Applets()...) {
		app, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range app.Classes {
			cf, err := classfile.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			checkClass(name, cf)
			cf.Release()
			classes++
		}
	}
	mutants := 0
	goldenMutants(t, func(name string, trial int, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return
		}
		defer cf.Release()
		if _, err := Verify(cf); err == nil {
			checkClass(name, cf)
			mutants++
		}
	})

	rng := rand.New(rand.NewSource(1))
	compared, diverged := 0, 0
	for trial := 0; trial < 3000; trial++ {
		if check("generated method", subroutineMethod(rng), nil, nil) {
			compared++
		} else {
			diverged++
		}
	}
	t.Logf("%d corpus classes, %d accepted mutants; generated methods: %d compared, %d on which the fixpoint never returns",
		classes, mutants, compared, diverged)
	if mutants == 0 || compared < 1000 || diverged < 100 {
		t.Errorf("too few cases: %d mutants, %d generated methods compared, %d diverging", mutants, compared, diverged)
	}
}

// subroutineMethod is a random method built of stack-neutral pieces — a
// push and a pop; a conditional branch or a goto to a piece of its own
// body, forward or back; a jsr to one of two subroutines — that ends in
// return. Each subroutine stores its return address, runs pieces of its
// own and rets. A backward branch puts the calls it spans in a loop.
func subroutineMethod(rng *rand.Rand) []bytecode.Inst {
	const subs = 2
	var insts []bytecode.Inst
	var starts [1 + subs][]int // per body: where each piece starts, then its last instruction
	var fixups [][3]int        // instruction, body, piece its branch goes to (-1: a subroutine's start)
	for body := 0; body <= subs; body++ {
		if body > 0 {
			insts = append(insts, bytecode.Inst{Op: bytecode.Astore1})
		}
		pieces := 1 + rng.Intn(12)
		for p := 0; p < pieces; p++ {
			starts[body] = append(starts[body], len(insts))
			switch rng.Intn(6) {
			case 0, 1:
				insts = append(insts, bytecode.Inst{Op: bytecode.Iconst0}, bytecode.Inst{Op: bytecode.Pop})
			case 2:
				insts = append(insts, bytecode.Inst{Op: bytecode.Iload0})
				fixups = append(fixups, [3]int{len(insts), body, rng.Intn(pieces + 1)})
				insts = append(insts, bytecode.Inst{Op: bytecode.Ifeq})
			case 3:
				fixups = append(fixups, [3]int{len(insts), body, rng.Intn(pieces + 1)})
				insts = append(insts, bytecode.Inst{Op: bytecode.Goto})
			default:
				fixups = append(fixups, [3]int{len(insts), 1 + rng.Intn(subs), -1})
				insts = append(insts, bytecode.Inst{Op: bytecode.Jsr})
			}
		}
		starts[body] = append(starts[body], len(insts))
		if body == 0 {
			insts = append(insts, bytecode.Inst{Op: bytecode.Return})
		} else {
			insts = append(insts, bytecode.Inst{Op: bytecode.Ret, Index: 1})
		}
	}
	for _, f := range fixups {
		if f[2] < 0 {
			insts[f[0]].Target = starts[f[1]][0] - 1 // the astore_1 before the first piece
		} else {
			insts[f[0]].Target = starts[f[1]][f[2]]
		}
	}
	return insts
}
