package rewrite_test

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/compiler"
	"dvm/internal/eval"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// bytesPerRun is the steady-state allocation of fn: one warm-up call, then
// the mean over runs.
func bytesPerRun(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// poolsAreLossy reports whether the test binary was built with -race.
// Under the race detector sync.Pool drops a quarter of what it is given on
// purpose, so recycled pools and arenas do not reach a steady state and an
// allocation budget measures the detector, not the code; the tests that
// hold one still run there, for the detector's sake, and only log.
func poolsAreLossy() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// instructionHeavyClass has methods × perMethod instructions of
// straight-line arithmetic, and little else.
func instructionHeavyClass(t *testing.T, methods, perMethod int) []byte {
	t.Helper()
	b := classgen.NewClass("demo/Heavy", "java/lang/Object")
	for i := 0; i < methods; i++ {
		m := b.Method(classfile.AccPublic|classfile.AccStatic, fmt.Sprintf("m%03d", i), "(I)I")
		m.ILoad(0)
		for k := 0; k < perMethod/2; k++ {
			m.IConst(int32(k % 5)).IAdd()
		}
		m.IReturn()
	}
	data, err := b.MustBuild().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func dvmContext() *rewrite.Context {
	ctx := rewrite.NewContext()
	ctx.ClientArch = compiler.ArchDVM
	return ctx
}

// TestProcessReleasesOnEveryExit: the recycled pool and arena go back
// whichever way Process leaves — a filter's refusal, a filter's panic, a
// class that does not parse — so a stream of classes the proxy turns away,
// which is what a hostile origin sends, costs no more per class than one
// it accepts. (Process used to release on success only: every rejected
// class dropped a constant pool's worth of scratch on the floor.)
func TestProcessReleasesOnEveryExit(t *testing.T) {
	const runs = 1000
	data := servicePlainClasses(t)["jlex/C001"]
	service := eval.ServicePipeline(eval.StandardPolicy(), true).Filters()
	with := func(last rewrite.Filter) *rewrite.Pipeline {
		return rewrite.NewPipeline(append(append([]rewrite.Filter(nil), service...), last)...)
	}
	nod := rewrite.FilterFunc{FilterName: "nod", Fn: func(*classfile.ClassFile, *rewrite.Context) error { return nil }}
	refusal := errors.New("refused")
	refuse := rewrite.FilterFunc{FilterName: "refuse", Fn: func(*classfile.ClassFile, *rewrite.Context) error { return refusal }}
	trip := rewrite.FilterFunc{FilterName: "trip", Fn: func(cf *classfile.ClassFile, _ *rewrite.Context) error {
		var none []int
		_ = none[len(cf.Methods)]
		return nil
	}}

	run := func(p *rewrite.Pipeline, data []byte, wantErr bool) float64 {
		return bytesPerRun(runs, func() {
			if _, err := p.Process(data, dvmContext()); (err != nil) != wantErr {
				t.Fatalf("Process: err = %v, want an error: %v", err, wantErr)
			}
		})
	}
	accepted := run(with(nod), data, false)
	for _, tc := range []struct {
		name string
		last rewrite.Filter
	}{{"refused by a filter", refuse}, {"a filter panicked", trip}} {
		if got := run(with(tc.last), data, true); got > 1.10*accepted && !poolsAreLossy() {
			t.Errorf("%s: %.0f bytes per class in steady state, %.0f for the same class accepted", tc.name, got, accepted)
		}
	}

	// A class that fails to parse never reaches a filter, so it is held to
	// the cheapest accepted path: parse, encode, release.
	passThrough := run(rewrite.NewPipeline(), data, false)
	for name, bad := range map[string][]byte{
		"truncated by a byte": data[:len(data)-1],
		"one trailing byte":   append(append([]byte(nil), data...), 0),
	} {
		if got := run(rewrite.NewPipeline(), bad, true); got > 1.10*passThrough && !poolsAreLossy() {
			t.Errorf("unparsable, %s: %.0f bytes per class in steady state, %.0f for the class passed through", name, got, passThrough)
		}
	}
	t.Logf("%d-byte class: accepted %.0f bytes per run, passed through %.0f", len(data), accepted, passThrough)
}

// TestProcessReusesInstructionStorage: after one warm-up run, processing
// a class again allocates no instruction list, PC index or MaxStack
// table — they are the arena's, recycled with the constant pool. The class
// is nearly all instructions (16000 of them: 640 KB as []bytecode.Inst
// before a single splice), so one list on the heap would show; what a run
// may allocate is its output plus 32 KB for everything that is not
// per-instruction storage (40 parsed members and their attributes, the
// verifier's findings, the filters' plans, the context's notes). A run is
// measured alone and the least of twenty taken, because a collection
// between runs can hand the next one a pool whose arena is still cold.
func TestProcessReusesInstructionStorage(t *testing.T) {
	data := instructionHeavyClass(t, 40, 400)
	pipe := eval.ServicePipeline(eval.StandardPolicy(), true)
	var out []byte
	least := 0.0
	for try := 0; try < 20; try++ {
		got := bytesPerRun(1, func() {
			var err error
			if out, err = pipe.Process(data, dvmContext()); err != nil {
				t.Fatal(err)
			}
		})
		if try == 0 || got < least {
			least = got
		}
	}
	const slack = 32 << 10
	t.Logf("%d-byte class in, %d bytes out: %.0f bytes allocated by a warm run", len(data), len(out), least)
	if poolsAreLossy() {
		return
	}
	if least > float64(len(out)+slack) {
		t.Errorf("a warm Process allocates %.0f bytes for %d bytes of output, want <= output + %d", least, len(out), slack)
	}
}

// TestScratchRetentionIsBounded: a class with a constant pool filled to the
// format's limit, then one with a method at the format's limit, go through
// the service pipeline; what their arenas keep for the next class is under
// the fixed bound, and an ordinary class afterwards still finds its
// storage warm.
func TestScratchRetentionIsBounded(t *testing.T) {
	nearFull, err := workload.PadPool(servicePlainClasses(t)["jlex/C001"], classfile.MaxPoolSize-5)
	if err != nil {
		t.Fatal(err)
	}
	b := classgen.NewClass("demo/Max", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "big", "()V")
	for i := 0; i < 0xFFFF/2-1; i++ {
		m.IConst(0).Pop()
	}
	m.Return()
	maximal, err := b.MustBuild().Encode()
	if err != nil {
		t.Fatal(err)
	}

	pipe := eval.ServicePipeline(eval.StandardPolicy(), true)
	process := func(name string, data []byte) (held, bound int) {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pool := cf.Pool
		err = pipe.ProcessClass(cf, dvmContext())
		during, _ := rewrite.ScratchRetained(pool)
		cf.Release()
		held, bound = rewrite.ScratchRetained(pool)
		t.Logf("%s (%d bytes): pipeline says %v; arena held %d bytes in use, %d after Release (bound %d)", name, len(data), err, during, held, bound)
		return held, bound
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"near-full pool", nearFull}, {"maximal method", maximal}} {
		if held, bound := process(tc.name, tc.data); held > bound {
			t.Errorf("%s: the arena keeps %d bytes after Release, bound %d", tc.name, held, bound)
		}
	}
	if held, _ := process("ordinary class", servicePlainClasses(t)["jlex/C001"]); held == 0 {
		t.Error("an ordinary class's arena was dropped at Release")
	}
}

// TestReleaseEndsTheArena: what DecodeMethod handed out is the class's
// storage and goes with it. With the poison hook on, an instruction list
// or PC index held past Release reads as values no decoder produces, and
// the editor itself has no class left to edit.
func TestReleaseEndsTheArena(t *testing.T) {
	defer bytecode.PoisonOnReset(bytecode.PoisonOnReset(true))
	cf, err := classfile.Parse(manyMethodClass(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	ed, err := rewrite.EditMethod(cf, cf.Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	insts, idx := ed.Insts, ed.PCIndex()
	if len(insts) != 4 || insts[0].Op != bytecode.Iload0 {
		t.Fatalf("fixture: decoded %v", insts)
	}
	cf.Release()
	for i, in := range insts {
		if in.Op != bytecode.PoisonOp || in.Target != bytecode.PoisonTarget {
			t.Errorf("instruction %d held past Release reads %v", i, in)
		}
	}
	for pc, x := range idx {
		if x != bytecode.PoisonIndex {
			t.Errorf("PC index entry %d held past Release reads %#x", pc, x)
		}
	}
	if ed.Insts != nil || ed.Code() != nil {
		t.Errorf("the editor held past Release still has %d instructions and code %v", len(ed.Insts), ed.Code())
	}
}

// TestPoisonedArena reruns the determinism test with Release poisoning
// the arena: a stage that kept anything of a released class — in a note,
// in a pipeline, in the output — would now produce different bytes.
func TestPoisonedArena(t *testing.T) {
	defer bytecode.PoisonOnReset(bytecode.PoisonOnReset(true))
	t.Run("PipelineRunsByteIdentical", TestPipelineRunsByteIdentical)
}
