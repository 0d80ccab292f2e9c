package jvm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dvm/internal/workload"
)

// launchSpec is the benchmark's launch app: the Cassowary spec at seed 1,
// renamed to the first of the bench's launch packages.
func launchSpec() workload.Spec {
	for _, s := range workload.Benchmarks() {
		if s.Package == "cassowary" {
			s.Seed++
			s.Package = "launch00"
			return s
		}
	}
	panic("no cassowary spec")
}

// launchClasses generates the launch app once per test binary.
var launchClasses = func() func(testing.TB) MapLoader {
	var classes MapLoader
	return func(tb testing.TB) MapLoader {
		tb.Helper()
		if classes == nil {
			app, err := workload.Generate(launchSpec())
			if err != nil {
				tb.Fatalf("generating the launch app: %v", err)
			}
			classes = MapLoader(app.Classes)
		}
		return classes
	}
}()

// launch boots a VM over the launch app, lets setup configure it, and
// runs main.
func launch(tb testing.TB, setup func(*VM)) (*VM, string, *Object, error) {
	tb.Helper()
	var out bytes.Buffer
	vm, err := New(launchClasses(tb), &out)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	if setup != nil {
		setup(vm)
	}
	thrown, err := vm.RunMain(launchSpec().MainClass(), nil)
	return vm, out.String(), thrown, err
}

// The launch app's counts, as the interpreter before the linked side
// tables and the thread stack recorded them. A change to how the loop
// keeps its books must leave every one of them as it is.
const (
	launchInstructions = 5743058
	launchInvocations  = 1686
	launchStdoutSHA    = "006044e824bff4015f84a293468d8908a7088bb0c9d58ddba4505a26658f9efc"
)

// runChain is the error prefix of the calls C000.run → … → C(n-1).run,
// each made at instruction 59 of its caller.
func runChain(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "jvm: launch00/C%03d.run(I)I @59: ", i)
	}
	return b.String()
}

func TestLaunchCountsUnchanged(t *testing.T) {
	vm, stdout, thrown, err := launch(t, nil)
	if err != nil || thrown != nil {
		t.Fatalf("launch: err=%v thrown=%s", err, DescribeThrowable(thrown))
	}
	sum := sha256.Sum256([]byte(stdout))
	t.Logf("instructions %d, invocations %d, stdout %d bytes sha256 %x",
		vm.Stats.InstructionsExecuted, vm.Stats.MethodInvocations, len(stdout), sum)
	if got := vm.Stats.InstructionsExecuted; got != launchInstructions {
		t.Errorf("InstructionsExecuted = %d, want %d", got, launchInstructions)
	}
	if got := vm.Stats.MethodInvocations; got != launchInvocations {
		t.Errorf("MethodInvocations = %d, want %d", got, launchInvocations)
	}
	if got := hex.EncodeToString(sum[:]); got != launchStdoutSHA {
		t.Errorf("stdout sha256 = %s, want %s", got, launchStdoutSHA)
	}

	t.Run("TraceOpcodes", func(t *testing.T) {
		vm, traced, thrown, err := launch(t, func(vm *VM) { vm.TraceOpcodes = true })
		if err != nil || thrown != nil {
			t.Fatalf("launch: err=%v thrown=%s", err, DescribeThrowable(thrown))
		}
		var total int64
		for _, n := range vm.OpcodeCounts {
			total += n
		}
		if total != vm.Stats.InstructionsExecuted || total != launchInstructions {
			t.Errorf("sum of OpcodeCounts = %d, InstructionsExecuted = %d, want both %d",
				total, vm.Stats.InstructionsExecuted, launchInstructions)
		}
		if traced != stdout {
			t.Errorf("a traced launch printed something else")
		}
	})

	// A budget trips at the same instruction of the same method, reached
	// through the same chain of calls, and leaves the counter one past it.
	for _, c := range []struct {
		budget int64
		want   string
	}{
		{1000000, "jvm: launch00/Main.main([Ljava/lang/String;)V @12: " + runChain(23) +
			"jvm: launch00/C023.run(I)I @33: instruction budget 1000000 exhausted"},
		{3000000, "jvm: launch00/Main.main([Ljava/lang/String;)V @12: " + runChain(3) +
			"jvm: launch00/C003.run(I)I @37: instruction budget 3000000 exhausted"},
		{launchInstructions - 1, "jvm: launch00/Main.main([Ljava/lang/String;)V @26: instruction budget 5743057 exhausted"},
	} {
		t.Run(fmt.Sprintf("budget=%d", c.budget), func(t *testing.T) {
			vm, _, thrown, err := launch(t, func(vm *VM) { vm.MaxInstructions = c.budget })
			if thrown != nil {
				t.Fatalf("thrown %s, want a budget error", DescribeThrowable(thrown))
			}
			if err == nil || err.Error() != c.want {
				t.Errorf("err = %v\nwant   %s", err, c.want)
			}
			if got := vm.Stats.InstructionsExecuted; got != c.budget+1 {
				t.Errorf("InstructionsExecuted = %d after the budget tripped, want %d", got, c.budget+1)
			}
		})
	}
	// The collector sees the frames as before: with collections forced
	// often, as many run and reclaim as many objects.
	t.Run("GC", func(t *testing.T) {
		vm, _, thrown, err := launch(t, func(vm *VM) { vm.SetGCThreshold(64) })
		if err != nil || thrown != nil {
			t.Fatalf("launch: err=%v thrown=%s", err, DescribeThrowable(thrown))
		}
		if s := vm.Stats; s.GCRuns != 8 || s.ObjectsAllocated != 1900 || s.ObjectsCollected != 1357 {
			t.Errorf("GCRuns %d, ObjectsAllocated %d, ObjectsCollected %d; want 8, 1900, 1357",
				s.GCRuns, s.ObjectsAllocated, s.ObjectsCollected)
		}
	})

	// A budget of exactly the launch's count is enough.
	vm, _, thrown, err = launch(t, func(vm *VM) { vm.MaxInstructions = launchInstructions })
	if err != nil || thrown != nil {
		t.Errorf("a budget of exactly %d: err=%v thrown=%s", launchInstructions, err, DescribeThrowable(thrown))
	}
}
