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
	"dvm/internal/slab"
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
// verifier rejection, a class that does not parse — so a stream of
// classes the proxy turns away, which is what a hostile origin sends,
// costs no more per class than one it accepts. (Process used to release on success only: every rejected
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

	// A class the verifier turns away at its last method, after collecting
	// findings for every other one, gives back its members, attributes and
	// findings as an accepted class does: it costs no more than the same
	// class passed through.
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	bad := cf.AddMethod(classfile.AccStatic, "bad", "()V")
	if err := cf.SetCode(bad, &classfile.Code{MaxStack: 1, Bytecode: []byte{0x2a, 0xb1}}); err != nil { // aload_0 with no locals; return
		t.Fatal(err)
	}
	rejected, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	through := run(rewrite.NewPipeline(), rejected, false)
	if got := run(with(nod), rejected, true); got > 1.10*through && !poolsAreLossy() {
		t.Errorf("rejected by the verifier: %.0f bytes per class in steady state, %.0f for the class passed through", got, through)
	}
	t.Logf("%d-byte class: accepted %.0f bytes per run, passed through %.0f", len(data), accepted, passThrough)
}

// TestProcessReusesInstructionStorage: after one warm-up run, processing
// a class again allocates no instruction list, PC index or MaxStack
// table — they are the arena's, recycled with the constant pool — and none
// of the class's members and attribute lists, the verifier's findings or
// the filters' plans either. The class is nearly all instructions (16000
// of them: 640 KB as []bytecode.Inst before a single splice), so one list
// on the heap would show; what a run may allocate is its output plus
// 1.6 KB: the ClassFile, the strings the services read from the pool and
// the two maps of the fresh context this test hands each run. (A warm run
// measures output + 1360 bytes; with the class's tables, findings and
// plans on the heap it was output + 21000.) A run is measured alone and
// the least of twenty taken, because a collection between runs can hand
// the next one a pool whose arena is still cold.
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
	const slack = 1600
	t.Logf("%d-byte class in, %d bytes out: %.0f bytes allocated by a warm run", len(data), len(out), least)
	if poolsAreLossy() {
		return
	}
	if least > float64(len(out)+slack) {
		t.Errorf("a warm Process allocates %.0f bytes for %d bytes of output, want <= output + %d", least, len(out), slack)
	}
}

// TestScratchRetentionIsBounded: a class with a constant pool filled to the
// format's limit, one with a method at the format's limit, one with
// thousands of members and one a filter panics on go through the service
// pipeline; what their arenas and pools keep for the next class — decoded
// bodies, members, attributes, constants — is under the fixed bounds, and
// an ordinary class afterwards still finds its storage warm.
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
	ordinary := servicePlainClasses(t)["jlex/C001"]

	service := eval.ServicePipeline(eval.StandardPolicy(), true)
	trip := rewrite.FilterFunc{FilterName: "trip", Fn: func(cf *classfile.ClassFile, _ *rewrite.Context) error {
		var none []int
		_ = none[len(cf.Methods)]
		return nil
	}}
	panicking := rewrite.NewPipeline(append(append([]rewrite.Filter(nil), service.Filters()...), trip)...)
	process := func(name string, pipe *rewrite.Pipeline, data []byte) (arena, store int) {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pool := cf.Pool
		err = pipe.ProcessClass(cf, dvmContext())
		during, _ := rewrite.ScratchRetained(pool)
		storeDuring, _ := pool.Retained()
		cf.Release()
		arena, arenaBound := rewrite.ScratchRetained(pool)
		store, storeBound := pool.Retained()
		t.Logf("%s (%d bytes): pipeline says %v; arena held %d bytes in use, %d after Release (bound %d); pool and store %d, then %d (bound %d)",
			name, len(data), err, during, arena, arenaBound, storeDuring, store, storeBound)
		if arena > arenaBound {
			t.Errorf("%s: the arena keeps %d bytes after Release, bound %d", name, arena, arenaBound)
		}
		if store > storeBound {
			t.Errorf("%s: the pool and its store keep %d bytes after Release, bound %d", name, store, storeBound)
		}
		return arena, store
	}
	for _, tc := range []struct {
		name string
		pipe *rewrite.Pipeline
		data []byte
	}{
		{"near-full pool", service, nearFull},
		{"maximal method", service, maximal},
		{"4096 methods", service, manyMethodClass(t, 4096)},
		{"a filter panicked", panicking, ordinary},
	} {
		process(tc.name, tc.pipe, tc.data)
	}
	if arena, store := process("ordinary class", service, ordinary); arena == 0 || store == 0 {
		t.Errorf("an ordinary class's storage was dropped at Release: arena %d bytes, pool and store %d", arena, store)
	}
}

// TestReleaseEndsTheArena: what DecodeMethod handed out is the class's
// storage and goes with it. With the poison hook on, an instruction list
// or PC index held past Release reads as values no decoder produces, and
// the editor itself has no class left to edit.
func TestReleaseEndsTheArena(t *testing.T) {
	defer slab.PoisonOnReset(slab.PoisonOnReset(true))
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
	defer slab.PoisonOnReset(slab.PoisonOnReset(true))
	t.Run("PipelineRunsByteIdentical", TestPipelineRunsByteIdentical)
}
