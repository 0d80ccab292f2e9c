package monitor

import (
	"fmt"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// manyMethods is a class of n methods that each return their argument.
func manyMethods(t *testing.T, n int) *classfile.ClassFile {
	t.Helper()
	b := classgen.NewClass("app/Many", "java/lang/Object")
	for i := 0; i < n; i++ {
		b.Method(classfile.AccPublic|classfile.AccStatic, fmt.Sprintf("m%05d", i), "(I)I").ILoad(0).IReturn()
	}
	data, err := b.MustBuild().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestPlanRetentionIsBounded: the plans of a class with more methods than
// keepPlans are given back to the collector when they return to the pool,
// not kept behind every later class; an ordinary class's stay warm.
func TestPlanRetentionIsBounded(t *testing.T) {
	f := &auditFilter{cfg: Config{Methods: true}}
	for _, tc := range []struct {
		n    int
		warm bool
	}{{2 * keepPlans, false}, {16, true}} {
		cf := manyMethods(t, tc.n)
		ps := new(auditPlans)
		if err := f.plan(cf, ps); err != nil {
			t.Fatal(err)
		}
		if len(*ps) != tc.n || (*ps)[tc.n-1].sites != 2 {
			t.Fatalf("fixture: %d plans for %d methods", len(*ps), tc.n)
		}
		ps.release()
		if kept := cap(*ps) > 0; kept != tc.warm {
			t.Errorf("%d methods: plans kept after release = %v, want %v", tc.n, kept, tc.warm)
		}
		cf.Release()
	}
}
