package bytecode_test

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/workload"
)

// threeBadSwitches is a method body of three lookupswitch instructions,
// none with pairs, each defaulting into its own padding (one byte past
// its opcode), then return. Every switch is malformed; which one a decode
// names must not depend on anything but the bytes.
func threeBadSwitches() []byte {
	var code []byte
	for i := 0; i < 3; i++ {
		code = append(code, byte(bytecode.Lookupswitch), 0, 0, 0, // opcode at a multiple of 4, padding
			0, 0, 0, 1, // default: +1
			0, 0, 0, 0) // npairs
	}
	return append(code, byte(bytecode.Return))
}

// TestDecodeRejectionIsDeterministic: a rejection's text ends up inside
// the replacement class every node of an attested fleet must agree on, so
// code with several bad targets has to report the same one every time —
// the first in instruction order.
func TestDecodeRejectionIsDeterministic(t *testing.T) {
	code := threeBadSwitches()
	_, first := bytecode.Decode(code)
	if first == nil {
		t.Fatal("three switches into their own padding were accepted")
	}
	if want := "bytecode: pc 0: branch target 1 is not an instruction boundary"; first.Error() != want {
		t.Errorf("first error = %q, want the first switch's: %q", first, want)
	}
	for i := 0; i < 200; i++ {
		if _, err := bytecode.Decode(code); err == nil || err.Error() != first.Error() {
			t.Fatalf("decode %d reports %v, the first decode reported %v", i, err, first)
		}
	}
}

// decodeAllocLimit bounds what decoding n bytes of code may allocate: an
// Inst (40 bytes, plus size-class rounding) per instruction and so at most
// per code byte, two bytes of PC index per code byte, and switch payloads
// at 8–12 bytes per 4–8 code bytes; the constant covers the error value.
func decodeAllocLimit(n int) uint64 { return uint64(64*n) + 2048 }

// allocated reports the bytes fn allocates; a reading over limit is
// retaken, because another goroutine (the fuzz worker's plumbing) can
// allocate inside the window and a decoder that really over-allocates
// does so every time.
func allocated(limit uint64, fn func()) uint64 {
	var least uint64
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if cost := after.TotalAlloc - before.TotalAlloc; try == 0 || cost < least {
			least = cost
		}
		if least <= limit {
			break
		}
	}
	return least
}

// checkDecode is the fuzz property, for Decode and DecodeExt alike: no
// panic, bounded allocation, the same answer on a second call, and an
// accepted body re-encodes to itself and decodes to the same instructions.
func checkDecode(t *testing.T, code []byte) {
	for _, dec := range []struct {
		name string
		fn   func([]byte) ([]bytecode.Inst, error)
	}{{"Decode", bytecode.Decode}, {"DecodeExt", bytecode.DecodeExt}} {
		var insts []bytecode.Inst
		var err error
		limit := decodeAllocLimit(len(code))
		if cost := allocated(limit, func() { insts, err = dec.fn(code) }); cost > limit {
			t.Errorf("%s allocated %d bytes for %d bytes of code (limit %d)", dec.name, cost, len(code), limit)
		}
		again, err2 := dec.fn(code)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Errorf("%s is not deterministic: %v, then %v", dec.name, err, err2)
		}
		if err != nil {
			continue
		}
		if !sameInsts(insts, again) {
			t.Errorf("%s decoded the same bytes to different instructions", dec.name)
		}
		enc, pcs, err := bytecode.Encode(insts)
		if err != nil {
			t.Errorf("%s: accepted body does not encode: %v", dec.name, err)
			continue
		}
		if !bytes.Equal(enc, code) {
			t.Errorf("%s: accepted body re-encodes differently:\n got  %x\n want %x", dec.name, enc, code)
		}
		back, err := dec.fn(enc)
		if err != nil || !sameInsts(insts, back) {
			t.Errorf("%s: Decode(Encode(insts)) differs from insts (%v)", dec.name, err)
		}
		for i := range insts {
			if pcs[i] != insts[i].PC {
				t.Errorf("%s: instruction %d decoded at pc %d, encoded at %d", dec.name, i, insts[i].PC, pcs[i])
			}
		}
	}
}

func sameInsts(a, b []bytecode.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if (x.Switch == nil) != (y.Switch == nil) {
			return false
		}
		if x.Switch != nil {
			if x.Switch.Default != y.Switch.Default || x.Switch.Low != y.Switch.Low ||
				!slices.Equal(x.Switch.Keys, y.Switch.Keys) || !slices.Equal(x.Switch.Targets, y.Switch.Targets) {
				return false
			}
			x.Switch, y.Switch = nil, nil
		}
		if x != y {
			return false
		}
	}
	return true
}

// methodBodies returns every method body of a generated application, in
// a fixed order.
func methodBodies(tb testing.TB, spec workload.Spec) [][]byte {
	tb.Helper()
	app, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var names []string
	for name := range app.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var out [][]byte
	for _, name := range names {
		cf, err := classfile.Parse(app.Classes[name])
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range cf.Methods {
			code, err := cf.CodeOf(m)
			if err != nil {
				tb.Fatal(err)
			}
			if code != nil {
				out = append(out, bytes.Clone(code.Bytecode))
			}
		}
	}
	return out
}

// everyKind is one body holding each operand encoding, the wide forms,
// both switches and the extension opcodes.
func everyKind() []byte {
	return []byte{
		byte(bytecode.Iconst0),      // 0
		byte(bytecode.Bipush), 0x7f, // 1
		byte(bytecode.Sipush), 0x01, 0x00, // 3
		byte(bytecode.Ldc), 0x01, // 6
		byte(bytecode.LdcW), 0x00, 0x01, // 8
		byte(bytecode.Iload), 0x01, // 11
		byte(bytecode.Iinc), 0x01, 0xff, // 13
		byte(bytecode.Wide), byte(bytecode.Iload), 0x01, 0x00, // 16
		byte(bytecode.Wide), byte(bytecode.Iinc), 0x01, 0x00, 0x7f, 0xff, // 20
		byte(bytecode.Ifeq), 0x00, 0x03, // 26 -> 29
		byte(bytecode.GotoW), 0x00, 0x00, 0x00, 0x05, // 29 -> 34
		byte(bytecode.Invokeinterface), 0x00, 0x02, 0x01, 0x00, // 34
		byte(bytecode.Newarray), bytecode.TInt, // 39
		byte(bytecode.Multianewarray), 0x00, 0x03, 0x02, // 41
		byte(bytecode.ExtLoadAdd), 0x01, 0x02, // 45
		byte(bytecode.ExtCmpBranch), 0x01, 0x02, 0x03, 0x00, 0x06, // 48 -> 54
		byte(bytecode.ExtIincLoad), 0x01, 0x05, // 54
		byte(bytecode.Iconst1), 0, 0, // 57, then nops to 60
		byte(bytecode.Tableswitch), 0, 0, 0, // 60
		0, 0, 0, 36, // default -> 96
		0, 0, 0, 1, 0, 0, 0, 2, // low, high
		0, 0, 0, 36, 0, 0, 0, 36, // arms -> 96
		byte(bytecode.Lookupswitch), 0, 0, 0, // 84
		0, 0, 0, 12, // default -> 96
		0, 0, 0, 0, // npairs
		byte(bytecode.Return), // 96
	}
}

// FuzzDecode feeds arbitrary bytes to both decoders. Seeds: every method
// body of two generated applications; the longest body of each, the
// every-encoding body and the three-bad-switches body cut at each
// instruction start and after each opcode byte, where truncation errors
// live.
func FuzzDecode(f *testing.F) {
	var cut [][]byte
	for _, spec := range []workload.Spec{workload.Benchmarks()[0], workload.Applets()[5]} {
		bodies := methodBodies(f, spec)
		longest := bodies[0]
		for _, b := range bodies {
			f.Add(b)
			if len(b) > len(longest) {
				longest = b
			}
		}
		cut = append(cut, longest)
	}
	for _, body := range append(cut, everyKind(), threeBadSwitches()) {
		f.Add(body)
		insts, err := bytecode.DecodeExt(body)
		if err != nil { // no instruction list to cut by: cut at every byte
			for i := range body {
				f.Add(body[:i])
			}
		}
		for _, in := range insts {
			f.Add(body[:in.PC])
			f.Add(body[:in.PC+1])
		}
	}
	f.Fuzz(checkDecode)
}
