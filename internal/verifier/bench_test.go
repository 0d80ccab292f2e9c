package verifier

import (
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/workload"
)

// benchClass returns a representative generated class for throughput
// measurement.
func benchClass(b *testing.B) ([]byte, *classfile.ClassFile) {
	b.Helper()
	spec := workload.Benchmarks()[0]
	spec.Classes = 3
	spec.TargetBytes = 32 * 1024
	app, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	for name, data := range app.Classes {
		if name == spec.MainClass() {
			continue
		}
		cf, err := classfile.Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		return data, cf
	}
	b.Fatal("no class")
	return nil, nil
}

// BenchmarkVerify measures static verification throughput (phases 1-3 +
// assumption collection).
func BenchmarkVerify(b *testing.B) {
	data, cf := benchClass(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(cf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyAndInstrument measures the full static service: verify,
// rewrite into self-verifying form, re-encode.
func BenchmarkVerifyAndInstrument(b *testing.B) {
	data, _ := benchClass(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf, err := classfile.Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Verify(cf)
		if err != nil {
			b.Fatal(err)
		}
		if err := Instrument(cf, res); err != nil {
			b.Fatal(err)
		}
		if _, err := cf.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// straightLine builds a class whose one static method is n straight-line
// instructions (iconst_1/pop pairs, then return), parsed from bytes as
// the proxy sees classes.
func straightLine(t *testing.T, n int) *classfile.ClassFile {
	t.Helper()
	b := classgen.NewClass("app/Line", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "run", "()V")
	for i := 0; i < (n-1)/2; i++ {
		m.IConst(1).Pop()
	}
	m.Return()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestVerifyAllocationDoesNotGrowWithMethodLength: phase 3 keeps its
// in-frames in a pooled slab and interprets in one scratch frame, so in
// steady state verifying a 2000-instruction method allocates what
// verifying a 100-instruction one does (it used to clone two slices per
// instruction visited).
func TestVerifyAllocationDoesNotGrowWithMethodLength(t *testing.T) {
	measure := func(n int) float64 {
		cf := straightLine(t, n)
		return testing.AllocsPerRun(50, func() {
			if _, err := Verify(cf); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(100), measure(2000)
	t.Logf("Verify allocations: %.0f at 100 instructions, %.0f at 2000", short, long)
	if long-short >= 16 {
		t.Errorf("Verify allocates %.0f times for 2000 instructions against %.0f for 100; the difference must stay under 16", long, short)
	}
}
