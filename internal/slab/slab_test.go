package slab

import (
	"reflect"
	"testing"
)

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
