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

// MaxStack computes max_stack for an instruction list: the greatest
// operand-stack height on any path from the entry, or from an instruction
// in handlersAt, where an exception handler starts at height one (the
// thrown exception).
//
// Heights follow phase 3's rules, with one exception kept so that no
// class's max_stack changes: a jsr's fall-through continues one above its
// caller's height, as if the return address were never popped. So the
// height at an instruction is its phase-3 height plus the most jsr
// fall-throughs on any path to it, which is finite unless a strongly
// connected component of the control-flow graph contains a fall-through;
// then every path's height under phase 3's rules is what counts. Code
// whose phase-3 heights disagree where paths join, or fall below zero, is
// an error: phase 3 rejects it, and a loop that gains height has no
// max_stack at all. One walk finds the phase-3 heights, following every
// edge once; only a method that calls a subroutine takes a second,
// depth-first walk for the components (Tarjan's algorithm), which follows
// every edge twice more. Its tables are a's storage for the length of the
// call.
func MaxStack(a *Arena, insts []Inst, pool *classfile.ConstPool, handlersAt []int) (int, error) {
	n := len(insts)
	if a != nil {
		defer a.i32.Release(a.i32.Mark())
	}
	height := a.Int32s(n)
	most, calls, steps, err := heights(insts, pool, handlersAt, height, a.Int32s(n)[:0])
	if err == nil && calls {
		most, steps = withSubroutines(a, insts, pool, handlersAt, height, most, steps)
	}
	if onMaxStack != nil {
		onMaxStack(insts, steps)
	}
	if err != nil {
		return 0, err
	}
	return most, nil
}

// onMaxStack, when set, receives each MaxStack call's instructions and
// the steps it took: one per instruction reached and one per edge out of
// one, and two more per edge in a method that calls a subroutine (tests).
var onMaxStack func(insts []Inst, steps int)

// heights follows every edge from the entry and the handlers once, giving
// each instruction reached 1 + its phase-3 entry height in height (0 for
// one no path reaches). It returns the greatest height on the way,
// whether a jsr was reached, and the steps it took: one per instruction
// and one per edge.
func heights(insts []Inst, pool *classfile.ConstPool, handlersAt []int, height, work []int32) (most int, calls bool, steps int, err error) {
	join, joinH := -1, 0 // where two paths first arrived with different heights, if anywhere
	reach := func(v, h int) {
		if v < 0 || v >= len(height) {
			return // no instruction: no path reaches it
		}
		if height[v] == 0 {
			height[v] = int32(h) + 1
			work = append(work, int32(v))
		} else if int(height[v]) != h+1 && join < 0 {
			join, joinH = v, h
		}
	}
	reach(0, 0)
	for _, r := range handlersAt {
		reach(r, 1)
	}
	for len(work) > 0 {
		u := int(work[len(work)-1])
		work = work[:len(work)-1]
		steps++
		in := &insts[u]
		h := int(height[u]) - 1
		pop, push, err := StackEffect(*in, pool)
		if err != nil {
			return 0, false, steps, err
		}
		after := h - pop + push
		if after < 0 {
			return 0, false, steps, decodeErrf(in.PC, "stack underflow computing max_stack (height %d, pops %d)", h, pop)
		}
		most = max(most, h, after)
		if in.Op.IsBranch() {
			reach(in.Target, after)
			steps++
			if in.Op == Jsr || in.Op == JsrW {
				calls = true
				after-- // phase 3 continues after a jsr at the caller's height
			}
		}
		if in.Op.IsSwitch() {
			reach(in.Switch.Default, after)
			for _, t := range in.Switch.Targets {
				reach(t, after)
			}
			steps += 1 + len(in.Switch.Targets)
		}
		if !in.Op.EndsFlow() {
			reach(u+1, after)
			steps++
		}
	}
	if join >= 0 {
		err = decodeErrf(insts[join].PC, "stack heights %d and %d join computing max_stack", height[join]-1, joinH)
	}
	return most, calls, steps, err
}

// withSubroutines returns the greatest height on a path from the entry
// and the handlers of a method that calls a subroutine, given its phase-3
// heights — phase3, their greatest, if a component holds a jsr
// fall-through — and the steps taken, counting on from steps.
func withSubroutines(a *Arena, insts []Inst, pool *classfile.ConstPool, handlersAt []int, height []int32, phase3, steps int) (int, int) {
	n := len(insts)
	c := components{insts: insts, pool: pool, height: height, steps: steps,
		index: a.Int32s(n), low: a.Int32s(n), comp: a.Int32s(n), most: a.Int32s(n),
		stack: a.Int32s(n)[:0], dfs: a.Int32s(2 * n)[:0]}
	if most := c.mostFrom(handlersAt); !c.diverges {
		return most, c.steps
	}
	return phase3, c.steps
}

// components is the depth-first walk over the instructions heights
// reached. Per instruction: 1 + its discovery order (0 before), the least
// discovery order it reaches back to, and 1 + its component (0 while on
// the component stack); per component, the greatest height on a path
// from it, jsr fall-throughs counted one higher.
type components struct {
	insts  []Inst
	pool   *classfile.ConstPool
	height []int32

	index, low, comp, most []int32
	stack                  []int32 // instructions whose component is open
	dfs                    []int32 // (instruction, next edge) pairs

	visits, comps int32
	steps         int
	diverges      bool // a component contains a jsr fall-through
}

// mostFrom closes every component reached from the entry and the
// handlers, and returns the greatest height on a path from them.
func (c *components) mostFrom(handlersAt []int) int {
	most := c.walk(0)
	for _, h := range handlersAt {
		most = max(most, c.walk(h))
	}
	return most
}

// edge is the k-th control-flow successor of insts[i] (the branch target,
// a switch's default and targets, then the next instruction); ft marks a
// jsr's fall-through, and ok is false past the last.
func edge(insts []Inst, i, k int) (to int, ft, ok bool) {
	in := &insts[i]
	if in.Op.IsBranch() {
		if k == 0 {
			return in.Target, false, true
		}
		k--
	}
	if in.Op.IsSwitch() {
		if k == 0 {
			return in.Switch.Default, false, true
		}
		if k <= len(in.Switch.Targets) {
			return in.Switch.Targets[k-1], false, true
		}
		k -= 1 + len(in.Switch.Targets)
	}
	if k == 0 && !in.Op.EndsFlow() {
		return i + 1, in.Op == Jsr || in.Op == JsrW, true
	}
	return 0, false, false
}

// walk closes every component reached from instruction r and returns the
// greatest height on a path from r (0 if r is no instruction).
func (c *components) walk(r int) int {
	if r < 0 || r >= len(c.insts) {
		return 0
	}
	if c.index[r] == 0 {
		c.push(int32(r))
	}
	for len(c.dfs) > 0 {
		top := len(c.dfs) - 2
		u, k := c.dfs[top], c.dfs[top+1]
		v, _, ok := edge(c.insts, int(u), int(k))
		if !ok {
			c.dfs = c.dfs[:top]
			if c.low[u] == c.index[u] {
				c.close(u)
			}
			if top > 0 {
				p := c.dfs[top-2]
				c.low[p] = min(c.low[p], c.low[u])
			}
			continue
		}
		c.dfs[top+1]++
		c.steps++
		switch {
		case v < 0 || v >= len(c.insts):
		case c.index[v] == 0:
			c.push(int32(v))
		case c.comp[v] == 0: // on the component stack
			c.low[u] = min(c.low[u], c.index[v])
		}
	}
	return int(c.most[c.comp[r]-1])
}

// push discovers instruction v.
func (c *components) push(v int32) {
	c.visits++
	c.index[v], c.low[v] = c.visits, c.visits
	c.stack = append(c.stack, v)
	c.dfs = append(c.dfs, v, 0)
}

// close pops the component rooted at r and records the greatest height on
// a path from it: its own instructions' and, one higher for a jsr
// fall-through, its successor components'.
func (c *components) close(r int32) {
	base := len(c.stack) - 1
	for c.stack[base] != r {
		base--
	}
	members := c.stack[base:]
	c.comps++
	for _, u := range members {
		c.comp[u] = c.comps
	}
	most := int32(0)
	for _, u := range members {
		pop, push, _ := StackEffect(c.insts[u], c.pool) // it succeeded when heights reached u
		h := c.height[u] - 1
		most = max(most, h, h-int32(pop)+int32(push))
		for k := 0; ; k++ {
			v, ft, ok := edge(c.insts, int(u), k)
			if !ok {
				break
			}
			c.steps++
			if v < 0 || v >= len(c.insts) {
				continue
			}
			switch vc := c.comp[v]; {
			case vc != c.comps && ft:
				most = max(most, c.most[vc-1]+1)
			case vc != c.comps:
				most = max(most, c.most[vc-1])
			case ft:
				c.diverges = true
			}
		}
	}
	c.most[c.comps-1] = most
	c.stack = c.stack[:base]
}
