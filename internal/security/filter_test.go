package security

import (
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// TestPlanRetentionIsBounded: the insertions planned for a class with more
// checked call sites than keepChecks are given back to the collector when
// they return to the pool, not kept behind every later class; an ordinary
// class's stay warm.
func TestPlanRetentionIsBounded(t *testing.T) {
	f := &enforceFilter{policy: &Policy{Operations: []Operation{
		{Permission: "net.connect", Class: "app/Net", Method: "open", TargetArg: "none"},
	}}}
	for _, tc := range []struct {
		n    int
		warm bool
	}{{2 * keepChecks, false}, {16, true}} {
		b := classgen.NewClass("app/Caller", "java/lang/Object")
		m := b.Method(classfile.AccPublic|classfile.AccStatic, "run", "()V")
		for i := 0; i < tc.n; i++ {
			m.InvokeStatic("app/Net", "open", "()V")
		}
		m.Return()
		data, err := b.MustBuild().Encode()
		if err != nil {
			t.Fatal(err)
		}
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		p := new(enforcePlan)
		if err := f.plan(cf, p); err != nil {
			t.Fatal(err)
		}
		if len(p.checks) != tc.n {
			t.Fatalf("fixture: %d checks planned for %d call sites", len(p.checks), tc.n)
		}
		p.release()
		if kept := cap(p.checks) > 0 && cap(p.calls) > 0; kept != tc.warm {
			t.Errorf("%d call sites: plan kept after release = %v, want %v", tc.n, kept, tc.warm)
		}
		cf.Release()
	}
}
