package verifier

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// TestVerifyResultOutlivesItsClass: Verify's Result is the caller's, a
// copy out of the pooled findings the verifier works in. The assumptions
// of the 400 benchmark classes stay as they were while each class is
// released and 200 classes then go through the verifier filter on two
// goroutines, drawing on the same findings pool, constant pools and
// arenas; under -race the detector also sees that nothing in a Result is
// shared with them.
func TestVerifyResultOutlivesItsClass(t *testing.T) {
	classes := map[string][]byte{}
	for _, spec := range workload.Benchmarks() {
		app, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range app.Classes {
			classes[name] = data
		}
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	results := make([]*Result, len(names))
	total := 0
	for i, name := range names {
		cf, err := classfile.Parse(classes[name])
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = Verify(cf); err != nil {
			t.Fatal(err)
		}
		cf.Release()
		total += len(results[i].Assumptions)
	}
	if total < 100 {
		t.Fatalf("fixture: %d classes make only %d assumptions", len(names), total)
	}
	snapshot := func() string {
		var all []Assumption
		for _, res := range results {
			all = append(all, res.Assumptions...)
		}
		return fmt.Sprint(all)
	}
	want := snapshot()
	t.Logf("%d classes, %d assumptions", len(names), total)

	pipe := rewrite.NewPipeline(Filter())
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 200; i += 2 {
				if _, err := pipe.Process(classes[names[i%len(names)]], rewrite.NewContext()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if got := snapshot(); got != want {
			t.Fatalf("the assumptions changed under later classes:\n got %s\nwant %s", got, want)
		}
	}
	wg.Wait()
	if got := snapshot(); got != want {
		t.Errorf("the assumptions changed under 200 later classes:\n got %s\nwant %s", got, want)
	}
}

// wideClass has one method that invokes n distinct methods of another
// class: n assumptions in one scope.
func wideClass(t *testing.T, n int) *classfile.ClassFile {
	t.Helper()
	b := classgen.NewClass("app/Wide", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "all", "()V")
	for i := 0; i < n; i++ {
		m.InvokeStatic("app/Other", fmt.Sprintf("m%05d", i), "()V")
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
	return cf
}

// TestFindingsRetentionIsBounded: findings that grew past findingsKeep for
// one outsized class are given back to the collector when they return to
// the pool, not kept behind every later class; ordinary ones stay warm.
func TestFindingsRetentionIsBounded(t *testing.T) {
	for _, tc := range []struct {
		n    int
		warm bool
	}{{2 * findingsKeep, false}, {16, true}} {
		cf := wideClass(t, tc.n)
		f := getFindings()
		if err := verify(cf, Options{}, f); err != nil {
			t.Fatal(err)
		}
		if len(f.list) != tc.n {
			t.Fatalf("fixture: %d findings for %d distinct calls", len(f.list), tc.n)
		}
		seen := reflect.ValueOf(f.seen).UnsafePointer()
		f.release()
		kept := cap(f.list) > 0 && reflect.ValueOf(f.seen).UnsafePointer() == seen
		if kept != tc.warm {
			t.Errorf("%d findings: list of %d and the same set kept after release = %v, want %v", tc.n, cap(f.list), kept, tc.warm)
		}
		cf.Release()
	}
}
