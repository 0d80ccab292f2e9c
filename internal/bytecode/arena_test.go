package bytecode

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != instSize && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Errorf("Inst is %d bytes, instSize says %d: the retention bounds are stated with it", got, instSize)
	}
}

// TestSlabTakeAndGrow: slices come back with capped capacity, the newest
// one grows where it lies, an older one moves, and nothing a caller holds
// is ever overwritten by a later Take or Grow.
func TestSlabTakeAndGrow(t *testing.T) {
	var s Slab[int]
	a := s.Take(4)
	if len(a) != 4 || cap(a) != 4 {
		t.Fatalf("Take(4) = len %d cap %d", len(a), cap(a))
	}
	for i := range a {
		a[i] = 10 + i
	}
	b := s.Take(3)
	for i := range b {
		b[i] = 20 + i
	}
	// b is the newest: it grows in place.
	b2 := s.Grow(b, 5)
	if &b2[0] != &b[0] || cap(b2) != 8 || len(b2) != 3 {
		t.Errorf("growing the newest slice: moved=%v len %d cap %d, want in place, 3, 8", &b2[0] != &b[0], len(b2), cap(b2))
	}
	// Growing within the capacity already there is the identity.
	if b3 := s.Grow(b2, 5); cap(b3) != 8 || &b3[0] != &b2[0] {
		t.Errorf("Grow with room to spare changed the slice")
	}
	// a is not the newest: it moves, with its contents, past b.
	a2 := s.Grow(a, 1)
	if &a2[0] == &a[0] || len(a2) != 4 || cap(a2) < 5 {
		t.Errorf("growing an older slice: moved=%v len %d cap %d", &a2[0] != &a[0], len(a2), cap(a2))
	}
	a2 = append(a2, 99)
	b2 = b2[:8]
	for i := 3; i < 8; i++ {
		b2[i] = 20 + i
	}
	if want := []int{10, 11, 12, 13}; !reflect.DeepEqual(a, want) || !reflect.DeepEqual(a2[:4], want) || a2[4] != 99 {
		t.Errorf("a = %v, moved copy = %v", a, a2)
	}
	if want := []int{20, 21, 22, 23, 24, 25, 26, 27}; !reflect.DeepEqual(b2, want) {
		t.Errorf("b = %v, want %v", b2, want)
	}
	// An append past the capped capacity copies out instead of running
	// into the neighbour.
	grown := append(a, 7)
	if a2[0] != 10 || b[0] != 20 || &grown[0] == &a[0] {
		t.Errorf("append past a capped slice wrote into the slab")
	}

	// A chunk that is exhausted is replaced; what was handed out stays.
	big := s.Take(1000)
	if len(big) != 1000 || a[0] != 10 || b2[7] != 27 {
		t.Errorf("replacing the chunk disturbed earlier slices")
	}

	// Mark/Release hands back scratch; Reset hands back everything.
	s.Take(10) // a fresh chunk with room to spare
	mark := s.Mark()
	s.Take(50)
	s.Release(mark)
	if s.Mark() != mark {
		t.Errorf("Release left %d elements out, want %d", s.Mark(), mark)
	}
	s.Reset(1 << 20)
	if s.Mark() != 0 || s.Cap() < 1000 {
		t.Errorf("Reset under the bound: %d out, chunk of %d", s.Mark(), s.Cap())
	}
	s.Reset(999)
	if s.Cap() != 0 {
		t.Errorf("Reset over the bound kept a chunk of %d", s.Cap())
	}
}

// switchBody is a tableswitch with two arms followed by three returns.
func switchBody() []byte {
	return []byte{
		byte(Iconst0),
		byte(Tableswitch), 0, 0, // opcode at pc 1, padding to 4
		0, 0, 0, 23, // default → pc 24
		0, 0, 0, 0, // low 0
		0, 0, 0, 1, // high 1
		0, 0, 0, 24, // → pc 25
		0, 0, 0, 25, // → pc 26
		byte(Return), byte(Return), byte(Return),
	}
}

// TestNilArenaIsTheHeap: the decoder, the indexer, the assembler and
// MaxStack are one body each; with an arena and without they agree.
func TestNilArenaIsTheHeap(t *testing.T) {
	code := switchBody()
	var a Arena
	for round := 0; round < 3; round++ {
		heapInsts, heapIdx, err := DecodeWithIndex(nil, code, false)
		if err != nil {
			t.Fatal(err)
		}
		insts, idx, err := DecodeWithIndex(&a, code, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(insts, heapInsts) || !reflect.DeepEqual(idx, heapIdx) {
			t.Fatalf("round %d: arena decode differs from heap decode", round)
		}
		hs, err1 := MaxStack(nil, heapInsts, nil, nil)
		as, err2 := MaxStack(&a, insts, nil, nil)
		if err1 != nil || err2 != nil || hs != as {
			t.Fatalf("MaxStack: heap %d (%v), arena %d (%v)", hs, err1, as, err2)
		}
		if a.i32.Mark() != 0 {
			t.Errorf("MaxStack left %d int32s of scratch taken", a.i32.Mark())
		}
		hb, err1 := Assemble(nil, heapInsts)
		ab, err2 := Assemble(&a, insts)
		if err1 != nil || err2 != nil || !bytes.Equal(hb, code) || !bytes.Equal(ab, code) {
			t.Fatalf("Assemble: heap % x (%v), arena % x (%v), want % x", hb, err1, ab, err2, code)
		}
		a.Reset()
	}
}

// TestArenaResetUnlinksAndPoisons: after Reset no recycled Inst still
// points at a switch payload, and with the hook on, storage held past
// Reset reads as values no decoder produces.
func TestArenaResetUnlinksAndPoisons(t *testing.T) {
	code := switchBody()
	var a Arena
	insts, _, err := DecodeWithIndex(&a, code, false)
	if err != nil {
		t.Fatal(err)
	}
	if insts[1].Switch == nil {
		t.Fatal("fixture: no switch payload")
	}
	a.Reset()
	for i, in := range a.insts.buf[:cap(a.insts.buf)] {
		if in.Switch != nil {
			t.Fatalf("recycled slot %d still links a switch payload", i)
		}
	}

	defer PoisonOnReset(PoisonOnReset(true))
	insts, idx, err := DecodeWithIndex(&a, code, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Assemble(&a, insts)
	if err != nil {
		t.Fatal(err)
	}
	a.Reset()
	for i, in := range insts {
		if in.Op != PoisonOp || in.Target != PoisonTarget || in.Switch != nil {
			t.Fatalf("held instruction %d reads %+v after a poisoned Reset", i, in)
		}
	}
	for pc, x := range idx {
		if x != PoisonIndex {
			t.Fatalf("held PC index entry %d reads %#x after a poisoned Reset", pc, x)
		}
	}
	if out[0] != byte(PoisonOp) {
		t.Fatalf("held code reads % x after a poisoned Reset", out)
	}
	// The next class decodes over the poison and is none the worse.
	again, _, err := DecodeWithIndex(&a, code, false)
	if err != nil || again[1].Switch == nil || again[0].Op != Iconst0 {
		t.Fatalf("decode into poisoned storage: %v %+v", err, again)
	}
}

// TestArenaBoundedRetention: one maximal method must not leave its slab
// pinned behind every later class, and an ordinary one must find its
// storage warm.
func TestArenaBoundedRetention(t *testing.T) {
	var a Arena
	small := switchBody()
	if _, _, err := DecodeWithIndex(&a, small, false); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	warm := a.Retained()
	if warm == 0 {
		t.Fatal("an ordinary method's storage was dropped")
	}
	if _, _, err := DecodeWithIndex(&a, small, false); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.Retained() != warm {
		t.Errorf("retained %d bytes after a second ordinary method, %d after the first", a.Retained(), warm)
	}

	huge := bytes.Repeat([]byte{byte(Iconst0), byte(Pop)}, 0xFFFF/2)
	huge = append(huge, byte(Return))
	insts, _, err := DecodeWithIndex(&a, huge, false)
	if err != nil || len(insts) != 0xFFFF {
		t.Fatalf("maximal method: %d instructions, %v", len(insts), err)
	}
	if _, err := MaxStack(&a, insts, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(&a, insts); err != nil {
		t.Fatal(err)
	}
	if during := a.Retained(); during < instSize*0xFFFF {
		t.Fatalf("fixture: the arena holds %d bytes with a maximal method decoded", during)
	}
	a.Reset()
	if got := a.Retained(); got > MaxRetained {
		t.Errorf("retained %d bytes after a maximal method, bound %d", got, MaxRetained)
	}
	if a.insts.Cap() != 0 {
		t.Errorf("the %d-instruction slab survived Reset", a.insts.Cap())
	}
}
