package eval

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/compiler"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// TestPipelineDecodesEachMethodOnce pins the single-decode rule at the
// classfile layer's own counter: over one run of the four-stage service
// pipeline, typed attribute decodes stay within 1.5 × the methods that
// have code (one Code decode each, plus room for the <clinit> the verifier
// may add) — whether the stages run inside one Pipeline.Process or, as the
// benchmark's ledger walk does, as four single-filter pipelines over one
// ClassFile and one Context. The stepped shape must also still produce the
// one-shot bytes.
func TestPipelineDecodesEachMethodOnce(t *testing.T) {
	app, err := workload.Generate(workload.Benchmarks()[0])
	if err != nil {
		t.Fatal(err)
	}
	raw := app.Classes["jlex/C001"]
	cf, err := classfile.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	withCode := 0
	for _, m := range cf.Methods {
		if cf.FindAttr(m.Attributes, classfile.AttrCode) != nil {
			withCode++
		}
	}
	budget := uint64(withCode + withCode/2)
	newCtx := func() *rewrite.Context {
		ctx := rewrite.NewContext()
		ctx.ClientArch = compiler.ArchDVM
		return ctx
	}

	pipe := ServicePipeline(StandardPolicy(), true)
	before := classfile.CodecStats().AttrsDecoded
	oneShot, err := pipe.Process(raw, newCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got := classfile.CodecStats().AttrsDecoded - before; got > budget {
		t.Errorf("Pipeline.Process made %d typed attribute decodes for %d methods with code, want <= %d", got, withCode, budget)
	}

	ctx := newCtx()
	before = classfile.CodecStats().AttrsDecoded
	for _, f := range pipe.Filters() {
		if err := rewrite.NewPipeline(f).ProcessClass(cf, ctx); err != nil {
			t.Fatal(err)
		}
	}
	stepped, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := classfile.CodecStats().AttrsDecoded - before; got > budget {
		t.Errorf("stepped pipeline made %d typed attribute decodes for %d methods with code, want <= %d", got, withCode, budget)
	}
	if !bytes.Equal(stepped, oneShot) {
		t.Error("four single-filter pipelines over one ClassFile produced different bytes from one Pipeline.Process")
	}
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

// TestPipelineAllocationBudget holds the static service to 45
// allocations and 1.25 times its output in bytes on a 15 KB workload
// class: about 1.15 × the 39 allocations and 17.6 KB it makes for 16.0 KB
// of output now that a class's members, attributes, verifier findings and
// filter plans are recycled with it. Before that it made 110 allocations
// and 24.6 KB (270 before a class's decoded bodies lived in its arena,
// 2927 and 94.2 KB when every stage decoded for itself). A run is measured
// alone and the least of ten taken, because a collection between runs can
// hand the next one a cold arena.
func TestPipelineAllocationBudget(t *testing.T) {
	spec := workload.Benchmarks()[0]
	spec.Classes = 3
	spec.TargetBytes = 32 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data := app.Classes["jlex/C001"]
	pipe := ServicePipeline(StandardPolicy(), false)
	var out []byte
	process := func() {
		if out, err = pipe.Process(data, rewrite.NewContext()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, process)
	var least uint64
	for try := 0; try < 10; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		process()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; try == 0 || got < least {
			least = got
		}
	}
	t.Logf("%d-byte class, %d bytes out: %.0f allocations, %d bytes per Pipeline.Process", len(data), len(out), allocs, least)
	if poolsAreLossy() {
		return
	}
	if allocs > 45 {
		t.Errorf("Pipeline.Process allocates %.0f times for the %d-byte bench class, want <= 45", allocs, len(data))
	}
	if least > uint64(len(out)+len(out)/4) {
		t.Errorf("Pipeline.Process allocates %d bytes for %d bytes of output, want <= 1.25x", least, len(out))
	}
}

// TestDescriptorsReachSharedCacheOncePerClass: a class's verification and
// rewriting parse each descriptor constant once and remember the result
// on the pool, so one Pipeline.Process asks the shared, lock-guarded
// descriptor cache at most once per NameAndType constant and declared
// member of the finished class, plus a little slack for array class names
// — however many instructions use a descriptor and however often
// MaxStack walks them. (It used to grow with invokes × MaxStack passes.)
func TestDescriptorsReachSharedCacheOncePerClass(t *testing.T) {
	app, err := workload.Generate(workload.Benchmarks()[0])
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for n, raw := range app.Classes {
		if len(raw) > len(app.Classes[name]) || len(raw) == len(app.Classes[name]) && n < name {
			name = n
		}
	}
	pipe := ServicePipeline(StandardPolicy(), true)
	ctx := rewrite.NewContext()
	ctx.ClientArch = compiler.ArchDVM
	h0, m0 := bytecode.DescriptorCacheStats()
	out, err := pipe.Process(app.Classes[name], ctx)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := bytecode.DescriptorCacheStats()

	cf, err := classfile.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	invokes, budget := 0, len(cf.Fields)+len(cf.Methods)+8
	for i := 1; i < cf.Pool.Size(); i++ {
		if cf.Pool.Tag(uint16(i)) == classfile.TagNameAndType {
			budget++
		}
	}
	for _, m := range cf.Methods {
		if ed, err := rewrite.DecodeMethod(cf, m); err == nil && ed != nil {
			for _, in := range ed.Insts {
				if in.Op.IsInvoke() || in.Op.IsFieldAccess() {
					invokes++
				}
			}
		}
	}
	lookups := int(h1 - h0 + m1 - m0)
	t.Logf("%s: %d shared-cache lookups for %d member-reference instructions (budget %d)", name, lookups, invokes, budget)
	if lookups > budget {
		t.Errorf("%s: %d shared descriptor-cache lookups in one Pipeline.Process, want <= %d", name, lookups, budget)
	}
	if invokes < 16 {
		t.Fatalf("fixture: %d member-reference instructions are too few to tell once per constant from once per use", invokes)
	}
}
