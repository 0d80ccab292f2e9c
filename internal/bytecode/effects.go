package bytecode

import (
	"fmt"

	"dvm/internal/classfile"
)

// StackEffect returns the operand-stack slot counts popped and pushed by
// the instruction. Instructions whose effect depends on a constant-pool
// reference (field accesses, invokes, multianewarray) resolve it through
// pool, which remembers the resolution and the descriptor's slot counts:
// a repeat visit reads them back. The rewriting engine uses this to
// recompute max_stack after splicing code, and the dataflow verifier
// uses it for conservative height tracking.
func StackEffect(in Inst, pool *classfile.ConstPool) (pop, push int, err error) {
	info := ops[in.Op]
	if info.pop >= 0 {
		return int(info.pop), int(info.push), nil
	}
	switch in.Op {
	case Getstatic, Putstatic, Getfield, Putfield:
		idx, err := pool.RefDescriptor(in.Index)
		if err != nil {
			return 0, 0, err
		}
		_, d, err := fieldDescriptor(pool, idx)
		if err != nil {
			return 0, 0, err
		}
		s := int(d.Slots)
		switch in.Op {
		case Getstatic:
			return 0, s, nil
		case Putstatic:
			return s, 0, nil
		case Getfield:
			return 1, s, nil
		default: // Putfield
			return 1 + s, 0, nil
		}
	case Invokevirtual, Invokespecial, Invokestatic, Invokeinterface:
		idx, err := pool.RefDescriptor(in.Index)
		if err != nil {
			return 0, 0, err
		}
		_, d, err := methodDescriptor(pool, idx)
		if err != nil {
			return 0, 0, err
		}
		pop = int(d.ParamSlots)
		if in.Op != Invokestatic {
			pop++ // receiver
		}
		return pop, int(d.Slots), nil
	case Multianewarray:
		return int(in.Dims), 1, nil
	}
	return 0, 0, fmt.Errorf("bytecode: no stack effect metadata for %s", in.Op.Name())
}

// MaxStack computes a conservative max_stack value for an instruction
// list by propagating stack heights along control flow. handlersAt maps
// instruction indices that begin exception handlers; handler entry starts
// with a stack height of one (the thrown exception).
//
// The computation is a fixed-point over the control-flow graph and
// assumes the code is well-formed enough that stack heights are
// consistent at join points (which phase-3 verification guarantees); on
// inconsistency it returns the larger height, staying conservative. Its
// tables are a's storage for the length of the call.
func MaxStack(a *Arena, insts []Inst, pool *classfile.ConstPool, handlersAt []int) (int, error) {
	n := len(insts)
	if a != nil {
		defer a.i32.Release(a.i32.Mark())
	}
	reached := a.Int32s(n) // 1 + the greatest entry height seen, 0 before the first visit
	work := a.Int32s(n + len(handlersAt))[:0]

	push := func(idx, h int) {
		if idx < 0 || idx >= n {
			return
		}
		if int(reached[idx]) <= h {
			reached[idx] = int32(h) + 1
			work = append(work, int32(idx))
		}
	}
	push(0, 0)
	for _, h := range handlersAt {
		push(h, 1)
	}

	maxH := 0
	for len(work) > 0 {
		idx := int(work[len(work)-1])
		work = work[:len(work)-1]
		h := int(reached[idx]) - 1
		in := &insts[idx]
		pop, pushN, err := StackEffect(*in, pool)
		if err != nil {
			return 0, err
		}
		after := h - pop + pushN
		if h > maxH {
			maxH = h
		}
		if after > maxH {
			maxH = after
		}
		if after < 0 {
			return 0, decodeErrf(in.PC, "stack underflow computing max_stack (height %d, pops %d)", h, pop)
		}
		if in.Op.IsBranch() {
			push(in.Target, after)
		}
		if in.Op.IsSwitch() {
			push(in.Switch.Default, after)
			for _, t := range in.Switch.Targets {
				push(t, after)
			}
		}
		if !in.Op.EndsFlow() {
			push(idx+1, after)
		}
	}
	return maxH, nil
}
