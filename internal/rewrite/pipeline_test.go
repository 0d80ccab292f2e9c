package rewrite_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/eval"
	"dvm/internal/monitor"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
	"dvm/internal/workload"
)

// servicePlainClasses returns serialized workload classes for pipeline
// identity testing.
func servicePlainClasses(t *testing.T) map[string][]byte {
	t.Helper()
	spec := workload.Benchmarks()[0]
	spec.Classes = 4
	spec.TargetBytes = 32 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return app.Classes
}

// fullPipeline is the static service with every rewriting option on,
// first-use probes included (eval.ServicePipeline leaves those off).
func fullPipeline() *rewrite.Pipeline {
	return rewrite.NewPipeline(
		verifier.Filter(),
		security.Filter(eval.StandardPolicy()),
		monitor.Filter(monitor.Config{Methods: true, FirstUse: true, Skip: monitor.SkipInitializers}),
	)
}

// TestPipelineRunsByteIdentical is the determinism test for the rewrite
// side with every option on: independently built pipelines, and one
// pipeline run again, emit byte-identical classes and identical notes.
func TestPipelineRunsByteIdentical(t *testing.T) {
	shared := fullPipeline()
	for name, data := range servicePlainClasses(t) {
		refCtx := rewrite.NewContext()
		ref, err := fullPipeline().Process(data, refCtx)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for run, p := range []*rewrite.Pipeline{fullPipeline(), shared, shared} {
			ctx := rewrite.NewContext()
			out, err := p.Process(data, ctx)
			if err != nil {
				t.Fatalf("%s: run %d: %v", name, run, err)
			}
			if !bytes.Equal(out, ref) {
				t.Errorf("%s: run %d output differs from the reference (%d vs %d bytes)", name, run, len(out), len(ref))
			}
			for _, note := range []string{security.NoteChecksInserted, monitor.NoteAuditSites} {
				if ctx.Notes[note] != refCtx.Notes[note] {
					t.Errorf("%s: run %d note %s = %v, reference %v", name, run, note, ctx.Notes[note], refCtx.Notes[note])
				}
			}
			got, _ := ctx.Note(verifier.NoteCensus)
			want, _ := refCtx.Note(verifier.NoteCensus)
			if *got.(*verifier.Census) != *want.(*verifier.Census) {
				t.Errorf("%s: run %d census diverges", name, run)
			}
		}
	}
}

// manyMethodClass builds a class with n trivial static methods.
func manyMethodClass(t *testing.T, n int) []byte {
	t.Helper()
	b := classgen.NewClass("demo/Many", "java/lang/Object")
	for i := 0; i < n; i++ {
		m := b.Method(classfile.AccPublic|classfile.AccStatic, fmt.Sprintf("m%03d", i), "(I)I")
		m.ILoad(0).IConst(int32(i)).IAdd().IReturn()
	}
	cf := b.MustBuild()
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentNotePublication: the pipeline runs a class on one
// goroutine, but a filter may start its own and publish from them; run
// under -race this is the regression test for the Context locking.
func TestConcurrentNotePublication(t *testing.T) {
	data := manyMethodClass(t, 96)
	counter := rewrite.FilterFunc{FilterName: "count", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		names := make([]string, len(cf.Methods))
		for i, m := range cf.Methods {
			names[i] = cf.MemberName(m) // the class stays with this goroutine
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(names); i += 8 {
					ctx.AddIntNote("count.methods", 1)
					ctx.SetNote("count.last", names[i])
				}
			}(w)
		}
		wg.Wait()
		return nil
	}}
	ctx := rewrite.NewContext()
	if _, err := rewrite.NewPipeline(counter).Process(data, ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Notes["count.methods"]; got != 96 {
		t.Fatalf("count.methods note = %v, want 96", got)
	}
	if _, ok := ctx.FilterTimings["count"]; !ok {
		t.Fatal("missing filter timing")
	}
}

// TestFilterPanicBecomesError: a filter that panics fails its class with
// an error naming the filter and the class — the proxy serves that as a
// rejection — and leaves the pipeline usable.
func TestFilterPanicBecomesError(t *testing.T) {
	data := manyMethodClass(t, 16)
	var calls int
	bad := rewrite.FilterFunc{FilterName: "violator", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		if calls++; calls == 1 {
			var none []int
			_ = none[len(cf.Methods)]
		}
		return nil
	}}
	p := rewrite.NewPipeline(bad)
	_, err := p.Process(data, rewrite.NewContext())
	if err == nil {
		t.Fatal("a panicking filter did not fail the pipeline")
	}
	if want := "rewrite: filter violator on demo/Many: panic: runtime error: index out of range [16] with length 0"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	if _, err := p.Process(data, rewrite.NewContext()); err != nil {
		t.Fatalf("the pipeline did not survive the panic: %v", err)
	}
}

// TestPoolOverflowRejectsClass: a filter that asks a full pool for one
// more constant fails the class as a pool overflow, whatever it went on to
// do with the zero index it got back and whatever error it returned.
func TestPoolOverflowRejectsClass(t *testing.T) {
	full, err := workload.PadPool(manyMethodClass(t, 2), classfile.MaxPoolSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, ret := range []error{nil, fmt.Errorf("confused by index 0")} {
		adder := rewrite.FilterFunc{FilterName: "adder", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
			if idx := cf.Pool.AddUtf8("one more"); idx != 0 {
				t.Errorf("AddUtf8 on a full pool returned %d", idx)
			}
			return ret
		}}
		_, err := rewrite.NewPipeline(adder).Process(full, nil)
		if want := "rewrite: filter adder on demo/Many: classfile: constant pool overflow"; err == nil || err.Error() != want {
			t.Errorf("filter returning %v: error = %v, want %q", ret, err, want)
		}
	}
	// Untouched, the same class passes through.
	if out, err := rewrite.NewPipeline().Process(full, nil); err != nil || !bytes.Equal(out, full) {
		t.Errorf("a class with a full pool and nothing to add did not pass through: %v", err)
	}
}

// TestProcessStartsNoGoroutine: one class is processed on the goroutine
// that called Process. A probe after every stage counts goroutines while
// the class is in flight, which catches one left running; that none is
// started and joined in between is read off the source — no go statement
// in the packages a class passes through.
func TestProcessStartsNoGoroutine(t *testing.T) {
	var during []int
	probe := rewrite.FilterFunc{FilterName: "probe", Fn: func(*classfile.ClassFile, *rewrite.Context) error {
		during = append(during, runtime.NumGoroutine())
		return nil
	}}
	p := rewrite.NewPipeline()
	for _, f := range eval.ServicePipeline(eval.StandardPolicy(), true).Filters() {
		p.Append(f)
		p.Append(probe)
	}
	for name, data := range servicePlainClasses(t) {
		during = during[:0]
		before := runtime.NumGoroutine()
		if _, err := p.Process(data, rewrite.NewContext()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for stage, n := range during {
			if n != before {
				t.Errorf("%s: %d goroutines after stage %d, %d before the pipeline ran", name, n, stage, before)
			}
		}
	}

	for _, path := range []string{".", "../verifier", "../classfile", "../bytecode", "../compiler",
		"../security/filter.go", "../monitor/filter.go"} {
		files := []string{path}
		if !strings.HasSuffix(path, ".go") {
			var err error
			if files, err = filepath.Glob(filepath.Join(path, "*.go")); err != nil || len(files) == 0 {
				t.Fatalf("%s: no sources (%v)", path, err)
			}
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			tree, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(tree, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: a go statement on the path of one class", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
