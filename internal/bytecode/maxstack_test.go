package bytecode_test

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// edges counts the control-flow edges out of insts: each branch target,
// switch default and switch target, and each fall-through.
func edges(insts []bytecode.Inst) int {
	n := 0
	for _, in := range insts {
		if in.Op.IsBranch() {
			n++
		}
		if in.Op.IsSwitch() {
			n += 1 + len(in.Switch.Targets)
		}
		if !in.Op.EndsFlow() {
			n++
		}
	}
	return n
}

// stepsPerEdge is what MaxStack spends on each edge of insts: one, and
// two more in a method that calls a subroutine.
func stepsPerEdge(insts []bytecode.Inst) int {
	for _, in := range insts {
		if in.Op == bytecode.Jsr || in.Op == bytecode.JsrW {
			return 3
		}
	}
	return 1
}

// TestAdversarialClassesFinishThePipeline: every adversarial class passes
// through the pipeline the proxy serves, the subroutine loops included —
// the monitor filter recomputes the max_stack of the method it
// instruments, where the fixpoint MaxStack used to be grew its heights
// on every lap and never returned — and each MaxStack call takes exactly
// one step per instruction and one per edge, three per edge in a method
// that calls a subroutine.
func TestAdversarialClassesFinishThePipeline(t *testing.T) {
	adv, err := workload.AdversarialClasses()
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	bytecode.CountMaxStack(t, func(insts []bytecode.Inst, steps int) {
		calls.Add(1)
		if want := len(insts) + stepsPerEdge(insts)*edges(insts); steps != want {
			t.Errorf("MaxStack took %d steps over %d instructions, want %d", steps, len(insts), want)
		}
	})
	pipe := proxy.ServicePipeline(nil, true)
	for _, a := range adv {
		before := calls.Load()
		out, err := pipe.Process(a.Data, rewrite.NewContext())
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if strings.HasPrefix(a.Name, "dvm/adversary/Jsr") && calls.Load() == before {
			t.Errorf("%s: the pipeline never recomputed a max_stack", a.Name)
		}
		t.Logf("%s: %d bytes in, %d out", a.Name, len(a.Data), len(out))
	}
}

// TestMaxStackRejectsAGrowingLoop: a loop whose back edge arrives one
// higher than it left has no max_stack; MaxStack says so, after one step
// per instruction and edge it reached, instead of raising the loop's
// heights for ever.
func TestMaxStackRejectsAGrowingLoop(t *testing.T) {
	insts := []bytecode.Inst{ // L0: iconst_0; iload_0; ifeq L0; return
		{Op: bytecode.Iconst0}, {Op: bytecode.Iload0}, {Op: bytecode.Ifeq, Target: 0}, {Op: bytecode.Return},
	}
	steps := 0
	bytecode.CountMaxStack(t, func(_ []bytecode.Inst, s int) { steps = s })
	if _, err := bytecode.MaxStack(nil, insts, nil, nil); err == nil || !strings.Contains(err.Error(), "join") {
		t.Fatalf("MaxStack = %v, want a join error", err)
	}
	if bound := len(insts) + edges(insts); steps > bound {
		t.Errorf("%d steps, want at most %d", steps, bound)
	}
}

// TestMaxStackStepsOnArbitraryCode: on random instruction lists — stack
// effects that need not balance, branches and subroutine calls to
// anywhere, handlers anywhere — MaxStack returns after at most one step
// per instruction and three per edge, whatever it returns.
func TestMaxStackStepsOnArbitraryCode(t *testing.T) {
	ops := []bytecode.Opcode{bytecode.Iconst0, bytecode.Pop, bytecode.Dup, bytecode.Iload0, bytecode.Astore1,
		bytecode.Ifeq, bytecode.Goto, bytecode.Jsr, bytecode.Ret, bytecode.Return}
	rng := rand.New(rand.NewSource(1))
	steps := 0
	bytecode.CountMaxStack(t, func(_ []bytecode.Inst, s int) { steps = s })
	for trial := 0; trial < 5000; trial++ {
		insts := make([]bytecode.Inst, 1+rng.Intn(40))
		for i := range insts {
			insts[i] = bytecode.Inst{Op: ops[rng.Intn(len(ops))], Index: 1, Target: rng.Intn(len(insts))}
		}
		handlers := []int{rng.Intn(len(insts))}
		bytecode.MaxStack(nil, insts, nil, handlers[:rng.Intn(2)])
		if bound := len(insts) + 3*edges(insts); steps > bound {
			t.Fatalf("trial %d: %d steps over %d instructions, want at most %d", trial, steps, len(insts), bound)
		}
	}
}
