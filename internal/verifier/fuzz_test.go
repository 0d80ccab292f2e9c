package verifier

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"dvm/internal/asm"
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/slab"
	"dvm/internal/workload"
)

// maxFuzzFrameWords bounds the frame words FuzzVerify lets one method
// store. A method whose join points alone can need more — a chain of
// gotos across 65 535 locals — is no concern of the join-point walk,
// which cannot bound it (ROADMAP item 10b).
const maxFuzzFrameWords = 1 << 22

// frameBounds returns, over data's methods, the largest of (join points +
// 1) × (max_locals + max_stack + 2), counting every branch, switch and
// handler target as a join point, and the largest of (instructions + 1) ×
// the same: what the join-point walk and the walk that stores every
// in-frame may each store for one method. Unparsed or undecodable code
// bounds nothing: phases 1 and 2 refuse it before phase 3 runs.
func frameBounds(data []byte) (joins, every int) {
	cf, err := classfile.Parse(data)
	if err != nil {
		return 0, 0
	}
	defer cf.Release()
	for _, m := range cf.Methods {
		code, err := cf.CodeOf(m)
		if err != nil || code == nil {
			continue
		}
		insts, err := bytecode.Decode(code.Bytecode)
		if err != nil {
			continue
		}
		n := 1 + len(code.Handlers)
		for _, in := range insts {
			if in.Target >= 0 {
				n++
			}
			if in.Switch != nil {
				n += 1 + len(in.Switch.Targets)
			}
		}
		width := int(code.MaxLocals) + int(code.MaxStack) + 2
		joins, every = max(joins, (n+1)*width), max(every, (len(insts)+1)*width)
	}
	return joins, every
}

// verdictOf parses and verifies data: "unparsed", the rejection's text,
// or the census and assumption count of an accepted class.
func verdictOf(data []byte) string {
	cf, err := classfile.Parse(data)
	if err != nil {
		return "unparsed"
	}
	defer cf.Release()
	res, err := Verify(cf)
	if err != nil {
		return "rejected: " + err.Error()
	}
	return fmt.Sprintf("accepted %d %d %d %d", res.Census.Phase1, res.Census.Phase2, res.Census.Phase3, len(res.Assumptions))
}

// fuzzSeeds are the verdict golden's sample classes and the adversarial
// corpus.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, spec := range []workload.Spec{workload.Benchmarks()[0], workload.Applets()[5]} {
		app, err := workload.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		var names []string
		for name := range app.Classes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, pick := range []int{1, 7, 13} {
			seeds = append(seeds, app.Classes[names[pick]])
		}
	}
	adv, err := workload.AdversarialClasses()
	if err != nil {
		tb.Fatal(err)
	}
	for _, a := range adv {
		seeds = append(seeds, a.Data)
	}
	return seeds
}

// FuzzVerify verifies its input as a class. Parse and Verify never panic;
// a second Verify with slab.PoisonOnReset on gives the same verdict,
// error text and census; each method's stored frames — in-frames and
// start frames each — stay within (join points + 1) × (max_locals +
// max_stack + 2) words; and the walk that stores an in-frame for every
// instruction gives the same verdict, error text and census, check for
// check.
func FuzzVerify(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		joinBound, everyBound := frameBounds(data)
		if joinBound > maxFuzzFrameWords {
			t.Skipf("its join points may store %d frame words: item 10b's to bound", joinBound)
		}
		observeFrames = func(f *frames) {
			joins := 0
			for _, j := range f.join {
				if j {
					joins++
				}
			}
			limit := (joins + 1) * (f.nlocals + f.maxStack + 2)
			if len(f.slab) > limit || len(f.starts) > limit {
				t.Errorf("%s%s: %d in-frame and %d start-frame words stored, want <= %d each (%d join points)",
					f.mname, f.mdesc, len(f.slab), len(f.starts), limit, joins)
			}
		}
		first := verdictOf(data)
		observeFrames = nil
		was := slab.PoisonOnReset(true)
		second := verdictOf(data)
		slab.PoisonOnReset(was)
		if second != first {
			t.Errorf("a second Verify under poison says %q, the first %q", second, first)
		}
		if everyBound <= maxFuzzFrameWords {
			storeEveryFrame = true
			every := verdictOf(data)
			storeEveryFrame = false
			if every != first {
				t.Errorf("storing every in-frame gives %q, the join-point walk %q", every, first)
			}
		}
	})
}

// TestAdversarialClassesStayBounded: each adversarial class keeps the
// verdict and the census the walk that stored every in-frame gave it —
// 406, 10 002 and 32 phase-3 checks — and verifying a bomb allocates
// under 2 MiB, where storing an in-frame per instruction allocated 1.10
// GB for the locals bomb and 1.20 GB for its max_stack twin. Under -race
// the allocation bound only logs.
func TestAdversarialClassesStayBounded(t *testing.T) {
	adv, err := workload.AdversarialClasses()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		verdict string
		bomb    bool
	}{
		"dvm/adversary/LocalsBomb":  {"accepted 11 404 406 0", true},
		"dvm/adversary/StackTwin":   {"accepted 11 10001 10002 0", true},
		"dvm/adversary/TernaryJoin": {"accepted 19 13 32 0", false},
	}
	for _, a := range adv {
		w, ok := want[a.Name]
		if !ok {
			t.Fatalf("no verdict pinned for %s", a.Name)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got := verdictOf(a.Data)
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s (%d bytes): %s, %d bytes allocated", a.Name, len(a.Data), got, allocated)
		if got != w.verdict {
			t.Errorf("%s: %s, want %s", a.Name, got, w.verdict)
		}
		if w.bomb && allocated >= 2<<20 && !raceEnabled() { // the detector's own allocations would count
			t.Errorf("%s: Verify allocated %d bytes, want < 2 MiB", a.Name, allocated)
		}
	}
}

// TestJoinWalkMatchesEveryFrame assembles random methods — stack-neutral
// snippets that store a String, an Integer, null, a long or a fresh object
// in a few locals and pass them on, with forward and backward branches —
// so that join points change after their pass and are passed again, and
// holds each verdict, error text and census to the walk that stores every
// in-frame. Every snippet leaves the stack empty, so every loop is
// consistent and bytecode.MaxStack, which the assembler runs, terminates.
func TestJoinWalkMatchesEveryFrame(t *testing.T) {
	const use = "invokestatic dvm/R use (Ljava/lang/Object;)V"
	snippets := []string{"aconst_null\nastore_2", "ldc \"s\"\nastore_2", "aload_1\nastore_2", "aload_2\nastore 4",
		"aload 4\n" + use, "aload_2\n" + use, "iconst_0\nistore_3", "iload_3\nistore 4", "lconst_0\nlstore 5",
		"lconst_0\nlstore 2", "aload_2\ncheckcast java/lang/String\nastore_2", "ldc \"s\"\nastore_1",
		"aconst_null\nastore_1", "aload_1\nastore 6", "aload 6\nastore_2", "new java/lang/Object\nastore 4"}
	rng := rand.New(rand.NewSource(1))
	methods, repassed := 0, 0
	observeFrames = func(f *frames) {
		if len(f.starts) > 0 {
			repassed++
		}
	}
	defer func() { observeFrames = nil }()
	for trial := 0; trial < 6000; trial++ {
		var b strings.Builder
		b.WriteString(".class public dvm/R\n.super java/lang/Object\n.method public static use (Ljava/lang/Object;)V\nreturn\n.end method\n" +
			".method public static run (ZLjava/lang/Integer;)V\n")
		size := 3 + rng.Intn(25)
		for i := 0; i < size; i++ {
			switch fmt.Fprintf(&b, "L%d:\n", i); rng.Intn(16) {
			case 0, 1:
				fmt.Fprintf(&b, "iload_0\nifeq L%d\n", rng.Intn(size+1))
			case 2:
				fmt.Fprintf(&b, "goto L%d\n", rng.Intn(size+1))
			default:
				b.WriteString(snippets[rng.Intn(len(snippets))] + "\n")
			}
		}
		fmt.Fprintf(&b, "L%d:\nreturn\n.end method\n", size)
		data, err := asm.AssembleBytes(b.String())
		if err != nil {
			t.Fatal(err)
		}
		walk := verdictOf(data)
		storeEveryFrame = true
		every := verdictOf(data)
		storeEveryFrame = false
		if every != walk {
			t.Fatalf("storing every in-frame gives %q, the join-point walk %q, for\n%s", every, walk, b.String())
		}
		methods++
	}
	t.Logf("%d methods, %d of them with a join point passed again after it changed", methods, repassed)
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	return slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
}
