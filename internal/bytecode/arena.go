package bytecode

import (
	"slices"
	"sync/atomic"
)

// Slab is a bump allocator over one chunk of T. Take carves the next n
// elements off the chunk; when the chunk is exhausted a larger one
// replaces it and the old one lives on only through the slices already
// handed out, so nothing a caller holds ever moves. Reset makes the whole
// chunk available again. Every slice comes back with its capacity capped
// at what was asked for: an append past it copies out to the heap instead
// of running into a neighbour.
type Slab[T any] struct {
	buf []T // the current chunk; len(buf) elements of it are handed out
}

// minChunk is the size, in elements, of a slab's first chunk.
const minChunk = 64

// Take returns the next n elements. Their contents are unspecified unless
// the slab's owner wipes on Reset.
func (s *Slab[T]) Take(n int) []T {
	if n > cap(s.buf)-len(s.buf) {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, minChunk))
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

// Grow returns v with room for n more elements, v being a slice this slab
// handed out (or nil). The newest allocation is extended where it lies;
// anything else moves to the end of the chunk with a quarter of its length
// to spare, and the space it leaves is not reused before Reset.
func (s *Slab[T]) Grow(v []T, n int) []T {
	c := cap(v)
	need := n - (c - len(v))
	if need <= 0 {
		return v
	}
	if end := len(s.buf); c > 0 && c <= end && &s.buf[end-c] == &v[:c][0] && need <= cap(s.buf)-end {
		s.buf = s.buf[:end+need]
		return s.buf[end-c : end-c+len(v) : end+need]
	}
	moved := s.Take(len(v) + n + len(v)/4)[:len(v)]
	copy(moved, v)
	return moved
}

// Mark and Release bracket scratch that dies with the function that took
// it: Release hands back everything taken since the Mark.
func (s *Slab[T]) Mark() int { return len(s.buf) }

// Release undoes the Takes since mark. If the chunk was replaced in
// between, the mark belongs to the old chunk and the new one keeps what it
// handed out until Reset.
func (s *Slab[T]) Release(mark int) {
	if mark <= len(s.buf) {
		s.buf = s.buf[:mark]
	}
}

// Cap returns the size of the current chunk, in elements.
func (s *Slab[T]) Cap() int { return cap(s.buf) }

// Used returns the handed-out part of the current chunk.
func (s *Slab[T]) Used() []T { return s.buf }

// Reset makes the chunk available again, or drops it when it holds more
// than retain elements, so that one outsized class does not stay pinned
// behind every later one. It does not wipe: an owner whose T carries
// pointers clears Used first.
func (s *Slab[T]) Reset(retain int) {
	if cap(s.buf) > retain {
		s.buf = nil
		return
	}
	s.buf = s.buf[:0]
}

// Arena is the storage of everything about a class's method bodies that
// dies with the class: instruction lists, PC indexes, MaxStack's scratch
// and assembled code. One arena serves one class at a time, on the one
// goroutine that owns the class, from Parse to Release; Reset then hands
// the same memory to the next class, so a warm pipeline decodes, splices
// and assembles without touching the heap.
//
// A nil *Arena is the heap: every method then allocates what it returns.
// Decode, the client runtime, the assembler and the class generator run
// the same decoder and assembler bodies that way.
type Arena struct {
	insts Slab[Inst]
	i32   Slab[int32]
	u16   Slab[uint16]
	bytes Slab[byte]
	bools Slab[bool]
}

// What each slab keeps across Reset, in elements, is bounded by a constant:
// a method body may be 65535 bytes and decode to as many Insts (2.5 MB of
// them, before any splice), which must not stay pinned in a sync.Pool
// behind every later class, while the classes a proxy sees day to day
// need a few thousand instructions and should find their storage warm. The
// bounds admit a class of some 25000 instructions, 40 times the largest of
// the 905-class benchmark corpus.
const (
	retainInsts  = 32 << 10  // 1.25 MB
	retainInt32s = 64 << 10  // 256 KB
	retainU16s   = 128 << 10 // 256 KB
	retainBytes  = 256 << 10
	retainBools  = 64 << 10

	// MaxRetained is the most an Arena holds on to between classes.
	MaxRetained = instSize*retainInsts + 4*retainInt32s + 2*retainU16s + retainBytes + retainBools

	instSize = 40 // unsafe.Sizeof(Inst{}) on 64-bit; TestInstSize
)

// Insts returns an empty instruction list with room for n.
func (a *Arena) Insts(n int) []Inst {
	if a == nil {
		return make([]Inst, 0, n)
	}
	return a.insts.Take(n)[:0]
}

// GrowInsts returns list, which came from Insts or GrowInsts of this
// arena, with room for n more instructions.
func (a *Arena) GrowInsts(list []Inst, n int) []Inst {
	if a == nil {
		return slices.Grow(list, n)
	}
	return a.insts.Grow(list, n)
}

// Int32s returns n zeroed int32s.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	v := a.i32.Take(n)
	clear(v)
	return v
}

// Uint16s returns n zeroed uint16s.
func (a *Arena) Uint16s(n int) []uint16 {
	if a == nil {
		return make([]uint16, n)
	}
	v := a.u16.Take(n)
	clear(v)
	return v
}

// Bools returns n false bools.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	v := a.bools.Take(n)
	clear(v)
	return v
}

// Bytes returns an empty byte slice with room for n.
func (a *Arena) Bytes(n int) []byte {
	if a == nil {
		return make([]byte, 0, n)
	}
	return a.bytes.Take(n)[:0]
}

// poisonOnReset makes Reset scribble over what the class used instead of
// merely unlinking it, so that a holder of released storage reads values
// no decoder produces rather than a plausible stale method.
var poisonOnReset atomic.Bool

// PoisonOnReset switches arena poisoning and returns the previous
// setting. It is a test hook: the pipeline's golden and determinism tests
// run once with it on, which turns a use after ClassFile.Release into a
// wrong artifact instead of a latent one.
func PoisonOnReset(on bool) (was bool) { return poisonOnReset.Swap(on) }

// Poison values: an unassigned opcode, a target that is neither an
// instruction index nor a snippet-relative sentinel, a PC index entry and
// a code byte no method of that length could hold.
const (
	PoisonOp     = Opcode(0xFF)
	PoisonTarget = -2
	PoisonIndex  = 0xFFFF
)

// Reset ends the arena's service to one class. Switch payloads are
// unlinked from the used instructions so that the recycled slab keeps
// nothing of the dead class alive, and a slab that grew past its retention
// bound is dropped.
func (a *Arena) Reset() {
	if poisonOnReset.Load() {
		fill(a.insts.Used(), Inst{Op: PoisonOp, PC: PoisonTarget, Target: PoisonTarget})
		fill(a.i32.Used(), PoisonTarget)
		fill(a.u16.Used(), PoisonIndex)
		fill(a.bytes.Used(), byte(PoisonOp))
	} else {
		clear(a.insts.Used())
	}
	a.insts.Reset(retainInsts)
	a.i32.Reset(retainInt32s)
	a.u16.Reset(retainU16s)
	a.bytes.Reset(retainBytes)
	a.bools.Reset(retainBools)
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Retained reports the bytes the arena holds on to between classes.
func (a *Arena) Retained() int {
	return instSize*cap(a.insts.buf) + 4*cap(a.i32.buf) + 2*cap(a.u16.buf) + cap(a.bytes.buf) + cap(a.bools.buf)
}
