package eval

import (
	"sync"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// nearFullClasses returns a valid corpus class with its constant pool
// padded to each of the counts that leave the services no room.
func nearFullClasses(t *testing.T) map[int][]byte {
	t.Helper()
	app, err := workload.Generate(workload.Benchmarks()[0])
	if err != nil {
		t.Fatal(err)
	}
	out := map[int][]byte{}
	for _, count := range []int{65530, 65534, 65535} {
		if out[count], err = workload.PadPool(app.Classes["jlex/C001"], count); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestNearFullPoolIsRejected: a class whose pool has no room for the
// constants the services add fails with one deterministic error — the
// text becomes the replacement class an attested fleet votes on — instead
// of panicking the process, which is what it did when interning treated
// overflow as a programming error.
func TestNearFullPoolIsRejected(t *testing.T) {
	for count, data := range nearFullClasses(t) {
		var texts []string
		for _, p := range []*rewrite.Pipeline{ServicePipeline(StandardPolicy(), true), ServicePipeline(StandardPolicy(), false)} {
			for run := 0; run < 2; run++ {
				out, err := p.Process(data, rewrite.NewContext())
				if err == nil {
					t.Fatalf("count %d: the pipeline found room in a full pool (%d bytes out)", count, len(out))
				}
				texts = append(texts, err.Error())
			}
		}
		for _, text := range texts {
			if text != texts[0] {
				t.Errorf("count %d: rejection text varies: %q, then %q", count, texts[0], text)
			}
		}
		if want := "rewrite: filter verifier on jlex/C001: classfile: constant pool overflow"; texts[0] != want {
			t.Errorf("count %d: rejected with %q, want %q", count, texts[0], want)
		}
	}
}

// TestSharedPipelineTwoGoroutines: a Pipeline is shared by every flight of
// a proxy while each class — its ClassFile, its pool, the scratch that
// pool is recycled from — belongs to the goroutine processing it. Two
// goroutines push different classes through one pipeline, over and over
// so that each keeps parsing into scratch the other just released; run
// under -race. Every output must be the one a private pipeline produces.
func TestSharedPipelineTwoGoroutines(t *testing.T) {
	origin, err := Corpus(16, 4096, 11)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.Generate(ScaleSpecs(workload.Benchmarks(), 10)[0])
	if err != nil {
		t.Fatal(err)
	}
	halves := [2]map[string][]byte{origin, app.Classes}
	want := map[string]attest.Sum{}
	for _, classes := range halves {
		ref := ServicePipeline(StandardPolicy(), true)
		for name, raw := range classes {
			out, err := ref.Process(raw, rewrite.NewContext())
			if err != nil {
				t.Fatalf("reference %s: %v", name, err)
			}
			want[name] = attest.Digest(out)
		}
	}

	shared := ServicePipeline(StandardPolicy(), true)
	var wg sync.WaitGroup
	for _, classes := range halves {
		wg.Add(1)
		go func(classes map[string][]byte) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for name, raw := range classes {
					out, err := shared.Process(raw, rewrite.NewContext())
					if err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
					if d := attest.Digest(out); d != want[name] {
						t.Errorf("%s: digest %.12s through the shared pipeline, %.12s through a private one", name, d, want[name])
						return
					}
				}
			}
		}(classes)
	}
	wg.Wait()
}
