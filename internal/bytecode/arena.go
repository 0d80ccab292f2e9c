package bytecode

import (
	"slices"

	"dvm/internal/slab"
)

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
	insts slab.Slab[Inst]
	i32   slab.Slab[int32]
	u16   slab.Slab[uint16]
	bytes slab.Slab[byte]
	bools slab.Slab[bool]
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
// bound is dropped. With slab.PoisonOnReset on, what the class used is
// overwritten instead, so that a holder of released storage reads values
// no decoder produces rather than a plausible stale method.
func (a *Arena) Reset() {
	if slab.Poisoning() {
		slab.Fill(a.insts.Used(), Inst{Op: PoisonOp, PC: PoisonTarget, Target: PoisonTarget})
		slab.Fill(a.i32.Used(), PoisonTarget)
		slab.Fill(a.u16.Used(), PoisonIndex)
		slab.Fill(a.bytes.Used(), byte(PoisonOp))
	} else {
		clear(a.insts.Used())
	}
	a.insts.Reset(retainInsts)
	a.i32.Reset(retainInt32s)
	a.u16.Reset(retainU16s)
	a.bytes.Reset(retainBytes)
	a.bools.Reset(retainBools)
}

// Retained reports the bytes the arena holds on to between classes.
func (a *Arena) Retained() int {
	return instSize*a.insts.Cap() + 4*a.i32.Cap() + 2*a.u16.Cap() + a.bytes.Cap() + a.bools.Cap()
}
