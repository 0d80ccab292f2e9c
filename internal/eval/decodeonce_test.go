package eval

import (
	"bytes"
	"testing"

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

// TestPipelineAllocationBudget holds the static service to 1400
// allocations on the BENCH_PIPELINE.json class (2927 were recorded there
// at workers=1 when every stage decoded for itself).
func TestPipelineAllocationBudget(t *testing.T) {
	data, err := pipelineBenchClass()
	if err != nil {
		t.Fatal(err)
	}
	pipe := ServicePipeline(StandardPolicy(), false)
	pipe.SetWorkers(1)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pipe.Process(data, rewrite.NewContext()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte class: %.0f allocations per Pipeline.Process", len(data), allocs)
	if allocs > 1400 {
		t.Errorf("Pipeline.Process allocates %.0f times for the %d-byte bench class, want <= 1400", allocs, len(data))
	}
}
