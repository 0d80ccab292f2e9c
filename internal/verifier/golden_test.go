package verifier

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/verdict_golden.txt from this tree's verifier")

// TestVerdictGolden pins the verifier's verdicts across versions. A
// rejection's message is embedded in the replacement class every node of
// an attested fleet must agree on, and the census is embedded in every
// accepted artifact, so both are wire format. For a fixed sample of corpus
// classes and seeded 1–3-byte mutations of each (even trials anywhere in
// the file, odd trials inside one method's bytecode so that phases 2 and
// 3 see most of them), the golden file holds one line per mutant:
// unparsed / accepted / rejected, the first 8 bytes of SHA-256 of the
// error string, the phase 1–3 census and the assumption count.
func TestVerdictGolden(t *testing.T) {
	const path = "testdata/verdict_golden.txt"
	const mutantsPerClass = 300
	var got bytes.Buffer
	for _, spec := range []workload.Spec{workload.Benchmarks()[0], workload.Applets()[5]} {
		app, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range app.Classes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, pick := range []int{1, 7, 13} {
			name := names[pick]
			base := app.Classes[name]
			ranges := bytecodeRanges(t, base)
			rng := rand.New(rand.NewSource(int64(len(base))*31 + int64(pick)))
			for trial := 0; trial < mutantsPerClass; trial++ {
				data := append([]byte(nil), base...)
				lo, n := 0, len(data)
				if trial%2 == 1 {
					r := ranges[rng.Intn(len(ranges))]
					lo, n = r[0], r[1]
				}
				for k := 0; k < 1+rng.Intn(3); k++ {
					data[lo+rng.Intn(n)] = byte(rng.Intn(256))
				}
				fmt.Fprintf(&got, "%s#%d %s\n", name, trial, verdictLine(data))
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d lines, this tree produces %d", path, len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs (later lines may too):\n  got  %s\n  want %s", path, i+1, gl[i], wl[i])
		}
	}
}

// verdictLine parses and verifies one mutant, in the pool and arena the
// mutant before it released.
func verdictLine(data []byte) string {
	cf, err := classfile.Parse(data)
	if err != nil {
		return "unparsed"
	}
	defer cf.Release()
	res, err := Verify(cf)
	if err != nil {
		h := sha256.Sum256([]byte(err.Error()))
		return fmt.Sprintf("rejected %x", h[:8])
	}
	return fmt.Sprintf("accepted %d %d %d %d", res.Census.Phase1, res.Census.Phase2, res.Census.Phase3, len(res.Assumptions))
}

// TestPoisonedArena reruns the verdict golden with Release poisoning the
// arena it recycles: a verdict, error text or census that drew on a
// released mutant's decoded bodies would come out different.
func TestPoisonedArena(t *testing.T) {
	defer bytecode.PoisonOnReset(bytecode.PoisonOnReset(true))
	t.Run("VerdictGolden", TestVerdictGolden)
}

// bytecodeRanges returns [offset, length] of every method body in data.
func bytecodeRanges(t *testing.T, data []byte) [][2]int {
	t.Helper()
	cf, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int
	for _, m := range cf.Methods {
		code, err := cf.CodeOf(m)
		if err != nil {
			t.Fatal(err)
		}
		if code == nil {
			continue
		}
		// The body follows its own u4 length in the Code attribute.
		needle := binary.BigEndian.AppendUint32(nil, uint32(len(code.Bytecode)))
		off := bytes.Index(data, append(needle, code.Bytecode...))
		if off < 0 {
			t.Fatalf("%s: bytecode of %s not found in the class bytes", cf.Name(), cf.MemberName(m))
		}
		out = append(out, [2]int{off + 4, len(code.Bytecode)})
	}
	return out
}
