package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

type specMetric struct {
	Name, Unit string
}

// TestWorkloads runs every workload for one short round and one small
// traced run, and holds the output to BENCHMARK.json: no failed
// operation, the promised mix, exactly the declared names and units, and
// a ledger whose stepped stages add up to the pipeline run.
func TestWorkloads(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}

	c, err := buildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			b, err := newBench(def, c, 20)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			m, _, breach := b.endToEnd(1, 300*time.Millisecond)
			if breach != nil {
				t.Errorf("end-to-end run: %v", breach)
			}
			m["setup_s"] = metric{1, "s"} // timed by runEndToEnd around set-ups like the one above
			sameMetrics(t, "end_to_end", spec.EndToEnd, m)

			tm, breach := b.traced(tracePlan{
				pairs: 1, loadDur: 50 * time.Millisecond, launches: 1,
				samples: 48, allocs: 4, jvmLaunches: 2, outDir: t.TempDir(),
			})
			if tm == nil || breach != nil {
				t.Fatalf("traced run: %v", breach)
			}
			sameMetrics(t, "per_layer", spec.PerLayer, tm)
			if n := b.failed.Load(); n != 0 {
				t.Errorf("%d of %d operations failed; first: %s", n, b.attempted.Load(), *b.firstFail.Load())
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameMetrics fails unless got has exactly the declared names and units.
func sameMetrics(t *testing.T, list string, want []specMetric, got map[string]metric) {
	t.Helper()
	declared := map[string]bool{}
	for _, w := range want {
		declared[w.Name] = true
		if !nameRE.MatchString(w.Name) {
			t.Errorf("%s: name %q is outside the contract's alphabet", list, w.Name)
		}
		if g, ok := got[w.Name]; !ok {
			t.Errorf("%s: %s is declared but not reported", list, w.Name)
		} else if g.Unit != w.Unit {
			t.Errorf("%s: %s is reported in %q, declared in %q", list, w.Name, g.Unit, w.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: reported but not declared: %v", list, extra)
	}
}
