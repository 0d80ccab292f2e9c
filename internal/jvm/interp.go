package jvm

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/slab"
)

// Thread is one Java execution thread. The DVM client runtime is
// single-threaded (the paper's measurements are, too), but the Thread
// object carries the priority state the security microbenchmarks
// manipulate, and the frame stack supports the monolithic baseline's
// stack-introspection security.
type Thread struct {
	vm       *VM
	Name     string
	Priority int32

	frames       []*frame
	pendingThrow *Object

	// The thread stack. Every activation takes its frame from frameSlab
	// and its locals and operand stack from valueSlab, and hands them
	// back when it returns; a call's argument vector is the caller's
	// popped operand slots. slots counts the Values the live activations
	// hold.
	frameSlab slab.Slab[frame]
	valueSlab slab.Slab[Value]
	slots     int
}

// VM returns the owning virtual machine.
func (t *Thread) VM() *VM { return t.vm }

// FrameClasses returns, innermost first, the class of every frame on the
// stack. The JDK1.2-style stack-introspection security manager (the
// monolithic baseline in Figure 9) walks this.
func (t *Thread) FrameClasses() []*Class {
	out := make([]*Class, 0, len(t.frames))
	for i := len(t.frames) - 1; i >= 0; i-- {
		out = append(out, t.frames[i].method.Class)
	}
	return out
}

// frame is one interpreter activation record. locals and stack are
// capacity-capped views of the thread stack, so an index past either
// panics instead of reaching a neighbouring frame.
type frame struct {
	method *Method
	locals []Value
	stack  []Value
	sp     int
}

const (
	maxCallDepth = 2048
	// maxStackSlots bounds the Values one thread's live activations may
	// hold (32 MiB). An activation that would pass it throws
	// StackOverflowError, as one past maxCallDepth does.
	maxStackSlots = 1 << 20
	// keepSlots is the largest value chunk (2 MiB) a thread keeps once
	// its outermost activation has returned.
	keepSlots = 1 << 16
)

// vmError is an internal (non-Java) execution error.
func vmErrorf(m *Method, idx int, format string, args ...any) error {
	prefix := ""
	if m != nil {
		prefix = fmt.Sprintf("%s @%d: ", m, idx)
	}
	return fmt.Errorf("jvm: "+prefix+format, args...)
}

// Invoke executes a method with the given arguments (receiver first for
// instance methods). It returns the result value (zero Value for void),
// the thrown-and-uncaught Java exception if any, and internal VM errors.
func (t *Thread) Invoke(m *Method, args []Value) (Value, *Object, error) {
	vm := t.vm
	vm.Stats.MethodInvocations++
	if len(t.frames) >= maxCallDepth {
		return Value{}, vm.Throw("java/lang/StackOverflowError", m.String()), nil
	}
	// Whatever the activation took from the thread stack goes back when
	// it returns, however it returns.
	depth, slots := len(t.frames), t.slots
	frameMark, valueMark := t.frameSlab.Mark(), t.valueSlab.Mark()
	defer func() {
		t.frames = t.frames[:depth]
		t.slots = slots
		t.frameSlab.Release(frameMark)
		t.valueSlab.Release(valueMark)
		if depth == 0 {
			// Nothing lives below the outermost activation: a chunk that a
			// deep or wide descent grew is dropped rather than kept for the
			// life of the VM.
			t.valueSlab.Reset(keepSlots)
		}
	}()
	if m.Native != nil {
		// Native frames still appear on the stack so introspection and GC
		// see them; locals hold the arguments.
		f := &t.frameSlab.Take(1)[0]
		*f = frame{method: m, locals: args}
		t.frames = append(t.frames, f)
		return m.Native(t, args)
	}
	if m.Code == nil {
		return Value{}, nil, vmErrorf(m, 0, "invoking abstract or code-less method")
	}
	if !m.prepared {
		if err := m.prepare(); err != nil {
			return Value{}, nil, err
		}
	}
	nlocals, nslots := int(m.Code.MaxLocals)+1, int(m.Code.MaxLocals)+1+int(m.Code.MaxStack)+2
	if t.slots+nslots > maxStackSlots {
		return Value{}, vm.Throw("java/lang/StackOverflowError", m.String()), nil
	}
	if vm.OnMethodEnter != nil {
		vm.OnMethodEnter(m.Class.Name, m.Name)
	}
	mem := t.valueSlab.Take(nslots)
	f := &t.frameSlab.Take(1)[0]
	*f = frame{method: m, locals: mem[:nlocals:nlocals], stack: mem[nlocals:nslots:nslots]}
	clear(f.locals)
	// Spread arguments into local slots (wide values take two).
	slot := 0
	for _, a := range args {
		if slot >= len(f.locals) {
			return Value{}, nil, vmErrorf(m, 0, "arguments overflow max_locals %d", m.Code.MaxLocals)
		}
		f.locals[slot] = a
		slot++
		if a.Wide() {
			if slot < len(f.locals) {
				f.locals[slot] = padV()
			}
			slot++
		}
	}
	t.frames = append(t.frames, f)
	t.slots += nslots
	v, thrown, err := t.run(f)
	if vm.OnMethodExit != nil {
		vm.OnMethodExit(m.Class.Name, m.Name)
	}
	return v, thrown, err
}

// InvokeByName resolves className.method(desc), ensures initialization,
// and invokes it. Convenience for services and tests.
func (t *Thread) InvokeByName(className, method, desc string, args []Value) (Value, *Object, error) {
	c, err := t.vm.Class(className)
	if err != nil {
		return Value{}, nil, err
	}
	if thrown, err := t.vm.EnsureInitialized(t, c); thrown != nil || err != nil {
		return Value{}, thrown, err
	}
	m := c.LookupMethod(method, desc)
	if m == nil {
		return Value{}, nil, fmt.Errorf("jvm: no method %s.%s%s", className, method, desc)
	}
	return t.Invoke(m, args)
}

// countLimit is the value of Stats.InstructionsExecuted past which the
// loop must look at the budget and the opcode trace: never with neither
// on, at once with the trace on.
func (vm *VM) countLimit() int64 {
	switch {
	case vm.TraceOpcodes:
		return 0
	case vm.MaxInstructions > 0:
		return vm.MaxInstructions
	}
	return math.MaxInt64
}

// run is the interpreter loop for one frame.
//
// The loop does each instruction's own work and one bookkeeping branch:
// the instruction counter, exact at every point, is compared with a
// limit (countLimit) that stands in for the budget and the opcode trace
// and is re-read after every instruction that can run other code.
//
// Bad operand-stack or local use, which only unverified code makes,
// panics on the slice's own bounds check; the deferred recover turns the
// runtime error into a VM error naming the method and the instruction.
func (t *Thread) run(f *frame) (v Value, thrown *Object, err error) {
	idx := 0
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runtime.Error)
			if !ok {
				panic(r)
			}
			v, thrown, err = Value{}, nil, vmErrorf(f.method, idx, "%v", re)
		}
	}()
	vm := t.vm
	m := f.method
	insts := m.insts
	limit := vm.countLimit()

	// The loop works on copies of the frame's slices and stack pointer;
	// push and pop are inlined and never escape. sync writes sp back to
	// the frame before anything that may allocate a Java object (and so
	// collect), load a class or run other code, so the collector and
	// every callee see the frame as if the loop worked on it directly.
	locals, stack, sp := f.locals, f.stack, 0
	push := func(v Value) { stack[sp] = v; sp++ }
	push2 := func(v Value) { stack[sp+1] = padV(); stack[sp] = v; sp += 2 }
	pop := func() Value { sp--; return stack[sp] }
	pop2 := func() Value { sp -= 2; return stack[sp] }
	top := func() Value { return stack[sp-1] }
	sync := func() { f.sp = sp }
	throw := func(class, msg string) *Object { sync(); return vm.Throw(class, msg) }

	for {
		if uint(idx) >= uint(len(insts)) {
			return Value{}, nil, vmErrorf(m, idx, "control fell off the end of the method")
		}
		in := &insts[idx]
		if vm.Stats.InstructionsExecuted++; vm.Stats.InstructionsExecuted > limit {
			if vm.MaxInstructions > 0 && vm.Stats.InstructionsExecuted > vm.MaxInstructions {
				return Value{}, nil, vmErrorf(m, idx, "instruction budget %d exhausted", vm.MaxInstructions)
			}
			if vm.TraceOpcodes {
				vm.OpcodeCounts[in.Op]++
			}
			limit = vm.countLimit()
		}

		switch in.Op {
		case bytecode.Nop:
		case bytecode.AconstNull:
			push(NullV())
		case bytecode.IconstM1, bytecode.Iconst0, bytecode.Iconst1, bytecode.Iconst2,
			bytecode.Iconst3, bytecode.Iconst4, bytecode.Iconst5:
			push(IntV(int32(in.Op) - int32(bytecode.Iconst0)))
		case bytecode.Lconst0:
			push2(LongV(0))
		case bytecode.Lconst1:
			push2(LongV(1))
		case bytecode.Fconst0:
			push(FloatV(0))
		case bytecode.Fconst1:
			push(FloatV(1))
		case bytecode.Fconst2:
			push(FloatV(2))
		case bytecode.Dconst0:
			push2(DoubleV(0))
		case bytecode.Dconst1:
			push2(DoubleV(1))
		case bytecode.Bipush, bytecode.Sipush:
			push(IntV(in.Const))
		case bytecode.Ldc, bytecode.LdcW:
			l := &m.links[in.Index]
			if !l.linked {
				sync()
				if err := t.linkConstant(m, l, false); err != nil {
					return Value{}, nil, vmErrorf(m, idx, "%v", err)
				}
			}
			push(l.val)
		case bytecode.Ldc2W:
			l := &m.links[in.Index]
			if !l.linked {
				sync()
				if err := t.linkConstant(m, l, true); err != nil {
					return Value{}, nil, vmErrorf(m, idx, "%v", err)
				}
			}
			push2(l.val)

		// Loads.
		case bytecode.Iload, bytecode.Fload, bytecode.Aload:
			push(locals[in.Index])
		case bytecode.Lload, bytecode.Dload:
			push2(locals[in.Index])
		case bytecode.Iload0, bytecode.Iload1, bytecode.Iload2, bytecode.Iload3:
			push(locals[in.Op-bytecode.Iload0])
		case bytecode.Lload0, bytecode.Lload1, bytecode.Lload2, bytecode.Lload3:
			push2(locals[in.Op-bytecode.Lload0])
		case bytecode.Fload0, bytecode.Fload1, bytecode.Fload2, bytecode.Fload3:
			push(locals[in.Op-bytecode.Fload0])
		case bytecode.Dload0, bytecode.Dload1, bytecode.Dload2, bytecode.Dload3:
			push2(locals[in.Op-bytecode.Dload0])
		case bytecode.Aload0, bytecode.Aload1, bytecode.Aload2, bytecode.Aload3:
			push(locals[in.Op-bytecode.Aload0])

		// Stores.
		case bytecode.Istore, bytecode.Fstore, bytecode.Astore:
			locals[in.Index] = pop()
		case bytecode.Lstore, bytecode.Dstore:
			locals[in.Index] = pop2()
			locals[in.Index+1] = padV()
		case bytecode.Istore0, bytecode.Istore1, bytecode.Istore2, bytecode.Istore3:
			locals[in.Op-bytecode.Istore0] = pop()
		case bytecode.Lstore0, bytecode.Lstore1, bytecode.Lstore2, bytecode.Lstore3:
			i := int(in.Op - bytecode.Lstore0)
			locals[i] = pop2()
			locals[i+1] = padV()
		case bytecode.Fstore0, bytecode.Fstore1, bytecode.Fstore2, bytecode.Fstore3:
			locals[in.Op-bytecode.Fstore0] = pop()
		case bytecode.Dstore0, bytecode.Dstore1, bytecode.Dstore2, bytecode.Dstore3:
			i := int(in.Op - bytecode.Dstore0)
			locals[i] = pop2()
			locals[i+1] = padV()
		case bytecode.Astore0, bytecode.Astore1, bytecode.Astore2, bytecode.Astore3:
			locals[in.Op-bytecode.Astore0] = pop()

		// Array loads.
		case bytecode.Iaload, bytecode.Faload, bytecode.Aaload, bytecode.Baload,
			bytecode.Caload, bytecode.Saload:
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = throw("java/lang/NullPointerException", "array load")
				goto throw
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				goto throw
			}
			push(a.Elems[i])
		case bytecode.Laload, bytecode.Daload:
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = throw("java/lang/NullPointerException", "array load")
				goto throw
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				goto throw
			}
			push2(a.Elems[i])

		// Array stores.
		case bytecode.Iastore, bytecode.Fastore, bytecode.Bastore,
			bytecode.Castore, bytecode.Sastore:
			v := pop()
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = throw("java/lang/NullPointerException", "array store")
				goto throw
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				goto throw
			}
			if in.Op == bytecode.Bastore {
				v = IntV(int32(int8(v.Int())))
			} else if in.Op == bytecode.Castore {
				v = IntV(int32(uint16(v.Int())))
			} else if in.Op == bytecode.Sastore {
				v = IntV(int32(int16(v.Int())))
			}
			a.Elems[i] = v
		case bytecode.Lastore, bytecode.Dastore:
			v := pop2()
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = throw("java/lang/NullPointerException", "array store")
				goto throw
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				goto throw
			}
			a.Elems[i] = v
		case bytecode.Aastore:
			v := pop()
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = throw("java/lang/NullPointerException", "array store")
				goto throw
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				goto throw
			}
			if v.R != nil && a.Class.Elem != nil && !v.R.Class.AssignableTo(a.Class.Elem) {
				thrown = throw("java/lang/ArrayStoreException", v.R.Class.Name)
				goto throw
			}
			a.Elems[i] = v

		// Stack manipulation (slot-oriented; pads flow naturally).
		case bytecode.Pop:
			pop()
		case bytecode.Pop2:
			pop()
			pop()
		case bytecode.Dup:
			push(top())
		case bytecode.DupX1:
			v1 := pop()
			v2 := pop()
			push(v1)
			push(v2)
			push(v1)
		case bytecode.DupX2:
			v1 := pop()
			v2 := pop()
			v3 := pop()
			push(v1)
			push(v3)
			push(v2)
			push(v1)
		case bytecode.Dup2:
			v1, v2 := top(), stack[sp-2]
			push(v2)
			push(v1)
		case bytecode.Dup2X1:
			v1 := pop()
			v2 := pop()
			v3 := pop()
			push(v2)
			push(v1)
			push(v3)
			push(v2)
			push(v1)
		case bytecode.Dup2X2:
			v1 := pop()
			v2 := pop()
			v3 := pop()
			v4 := pop()
			push(v2)
			push(v1)
			push(v4)
			push(v3)
			push(v2)
			push(v1)
		case bytecode.Swap:
			v1 := pop()
			v2 := pop()
			push(v1)
			push(v2)

		// Integer arithmetic.
		case bytecode.Iadd:
			b, a := pop().Int(), pop().Int()
			push(IntV(a + b))
		case bytecode.Isub:
			b, a := pop().Int(), pop().Int()
			push(IntV(a - b))
		case bytecode.Imul:
			b, a := pop().Int(), pop().Int()
			push(IntV(a * b))
		case bytecode.Idiv:
			b, a := pop().Int(), pop().Int()
			if b == 0 {
				thrown = throw("java/lang/ArithmeticException", "/ by zero")
				goto throw
			}
			if a == math.MinInt32 && b == -1 {
				push(IntV(math.MinInt32))
			} else {
				push(IntV(a / b))
			}
		case bytecode.Irem:
			b, a := pop().Int(), pop().Int()
			if b == 0 {
				thrown = throw("java/lang/ArithmeticException", "% by zero")
				goto throw
			}
			if a == math.MinInt32 && b == -1 {
				push(IntV(0))
			} else {
				push(IntV(a % b))
			}
		case bytecode.Ineg:
			push(IntV(-pop().Int()))
		case bytecode.Ishl:
			b, a := pop().Int(), pop().Int()
			push(IntV(a << (uint(b) & 31)))
		case bytecode.Ishr:
			b, a := pop().Int(), pop().Int()
			push(IntV(a >> (uint(b) & 31)))
		case bytecode.Iushr:
			b, a := pop().Int(), pop().Int()
			push(IntV(int32(uint32(a) >> (uint(b) & 31))))
		case bytecode.Iand:
			b, a := pop().Int(), pop().Int()
			push(IntV(a & b))
		case bytecode.Ior:
			b, a := pop().Int(), pop().Int()
			push(IntV(a | b))
		case bytecode.Ixor:
			b, a := pop().Int(), pop().Int()
			push(IntV(a ^ b))
		case bytecode.Iinc:
			locals[in.Index] = IntV(locals[in.Index].Int() + in.Const)

		// Long arithmetic.
		case bytecode.Ladd:
			b, a := pop2().Long(), pop2().Long()
			push2(LongV(a + b))
		case bytecode.Lsub:
			b, a := pop2().Long(), pop2().Long()
			push2(LongV(a - b))
		case bytecode.Lmul:
			b, a := pop2().Long(), pop2().Long()
			push2(LongV(a * b))
		case bytecode.Ldiv:
			b, a := pop2().Long(), pop2().Long()
			if b == 0 {
				thrown = throw("java/lang/ArithmeticException", "/ by zero")
				goto throw
			}
			if a == math.MinInt64 && b == -1 {
				push2(LongV(math.MinInt64))
			} else {
				push2(LongV(a / b))
			}
		case bytecode.Lrem:
			b, a := pop2().Long(), pop2().Long()
			if b == 0 {
				thrown = throw("java/lang/ArithmeticException", "% by zero")
				goto throw
			}
			if a == math.MinInt64 && b == -1 {
				push2(LongV(0))
			} else {
				push2(LongV(a % b))
			}
		case bytecode.Lneg:
			push2(LongV(-pop2().Long()))
		case bytecode.Lshl:
			b := pop().Int()
			a := pop2().Long()
			push2(LongV(a << (uint(b) & 63)))
		case bytecode.Lshr:
			b := pop().Int()
			a := pop2().Long()
			push2(LongV(a >> (uint(b) & 63)))
		case bytecode.Lushr:
			b := pop().Int()
			a := pop2().Long()
			push2(LongV(int64(uint64(a) >> (uint(b) & 63))))
		case bytecode.Land:
			b, a := pop2().Long(), pop2().Long()
			push2(LongV(a & b))
		case bytecode.Lor:
			b, a := pop2().Long(), pop2().Long()
			push2(LongV(a | b))
		case bytecode.Lxor:
			b, a := pop2().Long(), pop2().Long()
			push2(LongV(a ^ b))

		// Float/double arithmetic.
		case bytecode.Fadd:
			b, a := pop().Float(), pop().Float()
			push(FloatV(a + b))
		case bytecode.Fsub:
			b, a := pop().Float(), pop().Float()
			push(FloatV(a - b))
		case bytecode.Fmul:
			b, a := pop().Float(), pop().Float()
			push(FloatV(a * b))
		case bytecode.Fdiv:
			b, a := pop().Float(), pop().Float()
			push(FloatV(a / b))
		case bytecode.Frem:
			b, a := pop().Float(), pop().Float()
			push(FloatV(float32(math.Mod(float64(a), float64(b)))))
		case bytecode.Fneg:
			push(FloatV(-pop().Float()))
		case bytecode.Dadd:
			b, a := pop2().Double(), pop2().Double()
			push2(DoubleV(a + b))
		case bytecode.Dsub:
			b, a := pop2().Double(), pop2().Double()
			push2(DoubleV(a - b))
		case bytecode.Dmul:
			b, a := pop2().Double(), pop2().Double()
			push2(DoubleV(a * b))
		case bytecode.Ddiv:
			b, a := pop2().Double(), pop2().Double()
			push2(DoubleV(a / b))
		case bytecode.Drem:
			b, a := pop2().Double(), pop2().Double()
			push2(DoubleV(math.Mod(a, b)))
		case bytecode.Dneg:
			push2(DoubleV(-pop2().Double()))

		// Conversions.
		case bytecode.I2l:
			push2(LongV(int64(pop().Int())))
		case bytecode.I2f:
			push(FloatV(float32(pop().Int())))
		case bytecode.I2d:
			push2(DoubleV(float64(pop().Int())))
		case bytecode.L2i:
			push(IntV(int32(pop2().Long())))
		case bytecode.L2f:
			push(FloatV(float32(pop2().Long())))
		case bytecode.L2d:
			push2(DoubleV(float64(pop2().Long())))
		case bytecode.F2i:
			push(IntV(f2i(float64(pop().Float()))))
		case bytecode.F2l:
			push2(LongV(f2l(float64(pop().Float()))))
		case bytecode.F2d:
			push2(DoubleV(float64(pop().Float())))
		case bytecode.D2i:
			push(IntV(f2i(pop2().Double())))
		case bytecode.D2l:
			push2(LongV(f2l(pop2().Double())))
		case bytecode.D2f:
			push(FloatV(float32(pop2().Double())))
		case bytecode.I2b:
			push(IntV(int32(int8(pop().Int()))))
		case bytecode.I2c:
			push(IntV(int32(uint16(pop().Int()))))
		case bytecode.I2s:
			push(IntV(int32(int16(pop().Int()))))

		// Comparisons.
		case bytecode.Lcmp:
			b, a := pop2().Long(), pop2().Long()
			push(IntV(cmp3(a, b)))
		case bytecode.Fcmpl, bytecode.Fcmpg:
			b, a := float64(pop().Float()), float64(pop().Float())
			push(IntV(fcmp(a, b, in.Op == bytecode.Fcmpg)))
		case bytecode.Dcmpl, bytecode.Dcmpg:
			b, a := pop2().Double(), pop2().Double()
			push(IntV(fcmp(a, b, in.Op == bytecode.Dcmpg)))

		// Branches.
		case bytecode.Ifeq, bytecode.Ifne, bytecode.Iflt, bytecode.Ifge,
			bytecode.Ifgt, bytecode.Ifle:
			v := pop().Int()
			if intCond(in.Op, v, 0) {
				idx = in.Target
				continue
			}
		case bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt,
			bytecode.IfIcmpge, bytecode.IfIcmpgt, bytecode.IfIcmple:
			b, a := pop().Int(), pop().Int()
			if intCond(in.Op-(bytecode.IfIcmpeq-bytecode.Ifeq), a, b) {
				idx = in.Target
				continue
			}
		case bytecode.IfAcmpeq:
			b, a := pop().Ref(), pop().Ref()
			if a == b {
				idx = in.Target
				continue
			}
		case bytecode.IfAcmpne:
			b, a := pop().Ref(), pop().Ref()
			if a != b {
				idx = in.Target
				continue
			}
		case bytecode.Ifnull:
			if pop().Ref() == nil {
				idx = in.Target
				continue
			}
		case bytecode.Ifnonnull:
			if pop().Ref() != nil {
				idx = in.Target
				continue
			}
		case bytecode.Goto, bytecode.GotoW:
			idx = in.Target
			continue
		case bytecode.Jsr, bytecode.JsrW:
			push(retAddrV(idx + 1))
			idx = in.Target
			continue
		case bytecode.Ret:
			ra := locals[in.Index]
			if ra.Kind != KindRetAddr {
				return Value{}, nil, vmErrorf(m, idx, "ret on non-returnAddress local %d", in.Index)
			}
			idx = int(ra.I)
			continue
		case bytecode.Tableswitch:
			v := pop().Int()
			sw := in.Switch
			if v >= sw.Low && int64(v) < int64(sw.Low)+int64(len(sw.Targets)) {
				idx = sw.Targets[v-sw.Low]
			} else {
				idx = sw.Default
			}
			continue
		case bytecode.Lookupswitch:
			v := pop().Int()
			sw := in.Switch
			target := sw.Default
			lo, hi := 0, len(sw.Keys)-1
			for lo <= hi {
				mid := (lo + hi) / 2
				switch {
				case sw.Keys[mid] == v:
					target = sw.Targets[mid]
					lo = hi + 1
				case sw.Keys[mid] < v:
					lo = mid + 1
				default:
					hi = mid - 1
				}
			}
			idx = target
			continue

		// Returns.
		case bytecode.Ireturn, bytecode.Freturn, bytecode.Areturn:
			return pop(), nil, nil
		case bytecode.Lreturn, bytecode.Dreturn:
			return pop2(), nil, nil
		case bytecode.Return:
			return Value{}, nil, nil

		// Field access.
		case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
			l := &m.links[in.Index]
			s := l.field
			if s == nil {
				sync()
				var err error
				if s, thrown, err = t.resolveFieldSite(m, in.Op, l); err != nil {
					return Value{}, nil, vmErrorf(m, idx, "%v", err)
				}
				limit = vm.countLimit()
				if thrown != nil {
					goto throw
				}
			}
			switch in.Op {
			case bytecode.Getstatic, bytecode.Putstatic:
				if s.holder.initState == 0 {
					sync()
					th, err := vm.EnsureInitialized(t, s.holder)
					if err != nil {
						return Value{}, nil, vmErrorf(m, idx, "%v", err)
					}
					limit = vm.countLimit()
					if th != nil {
						thrown = th
						goto throw
					}
				}
				switch {
				case in.Op == bytecode.Putstatic && s.wide:
					s.holder.SetStatic(s.slot, pop2())
				case in.Op == bytecode.Putstatic:
					s.holder.SetStatic(s.slot, pop())
				case s.wide:
					push2(s.holder.GetStatic(s.slot))
				default:
					push(s.holder.GetStatic(s.slot))
				}
			case bytecode.Getfield:
				o := pop().Ref()
				if o == nil {
					thrown = throw("java/lang/NullPointerException", s.ref.String())
					goto throw
				}
				if s.wide {
					push2(o.GetField(s.slot))
				} else {
					push(o.GetField(s.slot))
				}
			case bytecode.Putfield:
				var v Value
				if s.wide {
					v = pop2()
				} else {
					v = pop()
				}
				o := pop().Ref()
				if o == nil {
					thrown = throw("java/lang/NullPointerException", s.ref.String())
					goto throw
				}
				o.SetField(s.slot, v)
			}

		// Invocations.
		case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic,
			bytecode.Invokeinterface:
			sync()
			ret, retSlots, th, err := t.execInvoke(f, in.Op, &m.links[in.Index])
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "%v", err)
			}
			sp = f.sp
			limit = vm.countLimit()
			if th != nil {
				thrown = th
				goto throw
			}
			switch retSlots {
			case 1:
				push(ret)
			case 2:
				push2(ret)
			}

		// Allocation.
		case bytecode.New:
			sync()
			l := &m.links[in.Index]
			if l.class == nil {
				cn, err := m.Class.File.Pool.ClassName(l.cp)
				if err != nil {
					return Value{}, nil, vmErrorf(m, idx, "new: %v", err)
				}
				if l.class, err = vm.Class(cn); err != nil {
					thrown = throw("java/lang/NoClassDefFoundError", cn)
					goto throw
				}
			}
			if l.class.initState == 0 {
				th, err := vm.EnsureInitialized(t, l.class)
				if err != nil {
					return Value{}, nil, err
				}
				limit = vm.countLimit()
				if th != nil {
					thrown = th
					goto throw
				}
			}
			push(RefV(vm.NewInstance(l.class)))
		case bytecode.Newarray:
			n := pop().Int()
			sync()
			if n < 0 {
				thrown = throw("java/lang/NegativeArraySizeException", fmt.Sprint(n))
				goto throw
			}
			desc := primDescForAType(in.ArrayType)
			ac, err := vm.arrayClass(desc)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "newarray: %v", err)
			}
			push(RefV(vm.NewArray(ac, int(n))))
		case bytecode.Anewarray:
			n := pop().Int()
			sync()
			if n < 0 {
				thrown = throw("java/lang/NegativeArraySizeException", fmt.Sprint(n))
				goto throw
			}
			l := &m.links[in.Index]
			if l.class == nil {
				cn, err := m.Class.File.Pool.ClassName(l.cp)
				if err != nil {
					return Value{}, nil, vmErrorf(m, idx, "anewarray: %v", err)
				}
				elemDesc := cn
				if cn[0] != '[' {
					elemDesc = "L" + cn + ";"
				}
				if l.class, err = vm.arrayClass(elemDesc); err != nil {
					thrown = throw("java/lang/NoClassDefFoundError", cn)
					goto throw
				}
			}
			push(RefV(vm.NewArray(l.class, int(n))))
		case bytecode.Multianewarray:
			l := &m.links[in.Index]
			var cn string
			if l.class == nil {
				var err error
				if cn, err = m.Class.File.Pool.ClassName(l.cp); err != nil {
					return Value{}, nil, vmErrorf(m, idx, "multianewarray: %v", err)
				}
			}
			dims := make([]int32, in.Dims)
			for i := int(in.Dims) - 1; i >= 0; i-- {
				dims[i] = pop().Int()
			}
			sync()
			for _, d := range dims {
				if d < 0 {
					thrown = throw("java/lang/NegativeArraySizeException", "")
					goto throw
				}
			}
			if l.class == nil {
				c, err := vm.Class(cn)
				if err != nil {
					return Value{}, nil, vmErrorf(m, idx, "multianewarray: %v", err)
				}
				l.class = c
			}
			arr, err := vm.newMultiArray(l.class, dims)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "multianewarray: %v", err)
			}
			push(RefV(arr))
		case bytecode.Arraylength:
			a := pop().Ref()
			if a == nil {
				thrown = throw("java/lang/NullPointerException", "arraylength")
				goto throw
			}
			push(IntV(int32(a.Len())))

		case bytecode.Athrow:
			thrown = pop().Ref()
			if thrown == nil {
				thrown = throw("java/lang/NullPointerException", "athrow of null")
			}
			goto throw

		case bytecode.Checkcast:
			o := top().Ref()
			if o == nil {
				break
			}
			sync()
			target, err := t.classOperand(m, &m.links[in.Index])
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "checkcast: %v", err)
			}
			if !o.Class.AssignableTo(target) {
				pop()
				thrown = throw("java/lang/ClassCastException",
					o.Class.Name+" cannot be cast to "+target.Name)
				goto throw
			}
		case bytecode.Instanceof:
			o := pop().Ref()
			if o == nil {
				push(IntV(0))
				break
			}
			sync()
			target, err := t.classOperand(m, &m.links[in.Index])
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "instanceof: %v", err)
			}
			if o.Class.AssignableTo(target) {
				push(IntV(1))
			} else {
				push(IntV(0))
			}

		// DVM native-format extension opcodes (centralized compilation
		// service output, §3.4).
		case bytecode.ExtLoadAdd:
			push(IntV(locals[in.Index].Int() + locals[in.ArrayType].Int()))
		case bytecode.ExtLoadMul:
			push(IntV(locals[in.Index].Int() * locals[in.ArrayType].Int()))
		case bytecode.ExtCmpBranch:
			a := locals[in.Index].Int()
			b := locals[in.ArrayType].Int()
			if intCond(bytecode.Ifeq+bytecode.Opcode(in.Count), a, b) {
				idx = in.Target
				continue
			}
		case bytecode.ExtIincLoad:
			v := locals[in.Index].Int() + in.Const
			locals[in.Index] = IntV(v)
			push(IntV(v))

		case bytecode.Monitorenter, bytecode.Monitorexit:
			o := pop().Ref()
			if o == nil {
				thrown = throw("java/lang/NullPointerException", "monitor on null")
				goto throw
			}
			vm.Stats.MonitorOps++

		default:
			return Value{}, nil, vmErrorf(m, idx, "unimplemented opcode %s", in.Op.Name())
		}

		idx++
		continue

	throw:
		sync()
		handlerIdx, ok := t.findHandler(m, idx, thrown)
		if !ok {
			return Value{}, thrown, nil
		}
		limit = vm.countLimit()
		sp = 0
		push(RefV(thrown))
		idx = handlerIdx
	}
}

// findHandler locates the innermost matching exception handler for the
// instruction index.
func (t *Thread) findHandler(m *Method, idx int, ex *Object) (int, bool) {
	for i := range m.handlers {
		h := &m.handlers[i]
		if idx < h.startIdx || idx >= h.endIdx {
			continue
		}
		if h.catchType == "" {
			return h.handlerIdx, true
		}
		if h.catch == nil {
			cc, err := t.vm.Class(h.catchType)
			if err != nil {
				continue
			}
			h.catch = cc
		}
		if ex.Class.AssignableTo(h.catch) {
			return h.handlerIdx, true
		}
	}
	return 0, false
}

// classOperand resolves the class a checkcast or instanceof names.
func (t *Thread) classOperand(m *Method, l *link) (*Class, error) {
	if l.class != nil {
		return l.class, nil
	}
	cn, err := m.Class.File.Pool.ClassName(l.cp)
	if err != nil {
		return nil, err
	}
	c, err := t.vm.Class(cn)
	if err != nil {
		return nil, err
	}
	l.class = c
	return c, nil
}

// linkConstant resolves the constant an ldc, ldc_w (wide false) or
// ldc2_w (wide true) loads. A string constant is the object
// VM.InternString returns, so every execution pushes the same reference.
func (t *Thread) linkConstant(m *Method, l *link, wide bool) error {
	op := "ldc"
	if wide {
		op = "ldc2_w"
	}
	v, err := t.vm.constantValue(m.Class.File.Pool, l.cp)
	switch {
	case err != nil:
		return fmt.Errorf("%s: %v", op, err)
	case v.Wide() && !wide:
		return errors.New("ldc of two-slot constant")
	case !v.Wide() && wide:
		return errors.New("ldc2_w of one-slot constant")
	}
	l.val, l.linked = v, true
	return nil
}

// resolveFieldSite builds (or returns) the resolution of a field access
// instruction.
func (t *Thread) resolveFieldSite(m *Method, op bytecode.Opcode, l *link) (*fieldSite, *Object, error) {
	if l.field != nil {
		return l.field, nil, nil
	}
	vm := t.vm
	ref, err := m.Class.File.Pool.Ref(l.cp)
	if err != nil {
		return nil, nil, err
	}
	owner, err := vm.Class(ref.Class)
	if err != nil {
		return nil, vm.Throw("java/lang/NoClassDefFoundError", ref.Class), nil
	}
	s := &fieldSite{ref: ref, wide: ref.Desc == "J" || ref.Desc == "D"}
	if op == bytecode.Getstatic || op == bytecode.Putstatic {
		s.static = true
		holder, slot, ok := owner.StaticSlot(ref.Name, ref.Desc)
		if !ok {
			return nil, vm.Throw("java/lang/NoSuchFieldError", ref.String()), nil
		}
		s.holder = holder
		s.slot = slot
	} else {
		slot, ok := owner.FieldSlot(ref.Name, ref.Desc)
		if !ok {
			return nil, vm.Throw("java/lang/NoSuchFieldError", ref.String()), nil
		}
		s.slot = slot
	}
	l.field = s
	return s, nil, nil
}

// resolveInvokeSite builds (or returns) the resolution of one
// invocation instruction.
func (t *Thread) resolveInvokeSite(m *Method, op bytecode.Opcode, l *link) (*invokeSite, *Object, error) {
	if l.call != nil {
		return l.call, nil, nil
	}
	vm := t.vm
	ref, err := m.Class.File.Pool.Ref(l.cp)
	if err != nil {
		return nil, nil, err
	}
	mt, err := parseMethodTypeCached(ref.Desc)
	if err != nil {
		return nil, nil, err
	}
	owner, err := vm.Class(ref.Class)
	if err != nil {
		return nil, vm.Throw("java/lang/NoClassDefFoundError", ref.Class), nil
	}
	s := &invokeSite{
		ref:      ref,
		retSlots: mt.Ret.Slots(),
		hasRecv:  op != bytecode.Invokestatic,
		total:    mt.ParamSlots(),
		owner:    owner,
	}
	if s.hasRecv {
		s.total++
	}
	if op == bytecode.Invokestatic || op == bytecode.Invokespecial {
		s.resolved = owner.LookupMethod(ref.Name, ref.Desc)
		if s.resolved == nil {
			return nil, vm.Throw("java/lang/NoSuchMethodError", ref.String()), nil
		}
	}
	l.call = s
	return s, nil, nil
}

// execInvoke implements the four invocation instructions: it pops the
// arguments off f's operand stack and returns the result and how many
// slots it takes.
func (t *Thread) execInvoke(f *frame, op bytecode.Opcode, l *link) (ret Value, retSlots int, thrown *Object, err error) {
	vm := t.vm
	s, thrown, err := t.resolveInvokeSite(f.method, op, l)
	if thrown != nil || err != nil {
		return Value{}, 0, thrown, err
	}
	if f.sp < s.total {
		return Value{}, 0, nil, fmt.Errorf("operand stack underflow invoking %s", s.ref)
	}
	if op == bytecode.Invokestatic && s.owner.initState == 0 {
		if th, err := vm.EnsureInitialized(t, s.owner); th != nil || err != nil {
			return Value{}, 0, th, err
		}
	}
	slots := f.stack[f.sp-s.total : f.sp : f.sp]
	f.sp -= s.total

	// Collapse the slots into argument values (drop pads) in place: the
	// vector is the caller's popped operands, dead until the result is
	// pushed over them.
	args := slots[:0]
	for i := 0; i < len(slots); i++ {
		args = append(args, slots[i])
		if slots[i].Wide() {
			i++ // skip pad
		}
	}

	var callee *Method
	switch op {
	case bytecode.Invokestatic, bytecode.Invokespecial:
		callee = s.resolved
	case bytecode.Invokevirtual, bytecode.Invokeinterface:
		recv := args[0].Ref()
		if recv == nil {
			return Value{}, 0, vm.Throw("java/lang/NullPointerException", "invoke on null receiver: "+s.ref.String()), nil
		}
		// Monomorphic inline cache: most call sites see one receiver
		// class.
		if recv.Class == s.lastRecv {
			callee = s.lastTarget
		} else {
			callee = recv.Class.LookupMethod(s.ref.Name, s.ref.Desc)
			if callee == nil {
				callee = s.owner.LookupMethod(s.ref.Name, s.ref.Desc)
			}
			if callee != nil {
				s.lastRecv = recv.Class
				s.lastTarget = callee
			}
		}
	}
	if callee == nil {
		return Value{}, 0, vm.Throw("java/lang/NoSuchMethodError", s.ref.String()), nil
	}
	if s.hasRecv && args[0].Ref() == nil && op != bytecode.Invokespecial {
		return Value{}, 0, vm.Throw("java/lang/NullPointerException", s.ref.String()), nil
	}
	if callee.Flags&classfile.AccAbstract != 0 {
		return Value{}, 0, vm.Throw("java/lang/AbstractMethodError", callee.String()), nil
	}

	ret, thrown, err = t.Invoke(callee, args)
	if slab.Poisoning() {
		slab.Fill(args, poisonV)
	}
	if err != nil || thrown != nil {
		return Value{}, 0, thrown, err
	}
	return ret, s.retSlots, nil, nil
}

// poisonV is what an argument vector holds once its call has returned,
// under slab.PoisonOnReset: a reference with no class, which fails on
// first use, so a native that kept the vector is caught.
var poisonV = Value{Kind: KindRef, R: &Object{}}

// newMultiArray recursively allocates a multi-dimensional array of class
// ac (e.g. "[[I").
func (vm *VM) newMultiArray(ac *Class, dims []int32) (*Object, error) {
	arr := vm.NewArray(ac, int(dims[0]))
	if len(dims) > 1 && len(arr.Elems) > 0 {
		sub, err := vm.Class(ac.ElemDesc)
		if err != nil {
			return nil, err
		}
		for i := range arr.Elems {
			o, err := vm.newMultiArray(sub, dims[1:])
			if err != nil {
				return nil, err
			}
			arr.Elems[i] = RefV(o)
		}
	}
	return arr, nil
}

func primDescForAType(atype uint8) string {
	switch atype {
	case bytecode.TBoolean:
		return "Z"
	case bytecode.TChar:
		return "C"
	case bytecode.TFloat:
		return "F"
	case bytecode.TDouble:
		return "D"
	case bytecode.TByte:
		return "B"
	case bytecode.TShort:
		return "S"
	case bytecode.TInt:
		return "I"
	case bytecode.TLong:
		return "J"
	}
	return "I"
}

func cmp3(a, b int64) int32 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// fcmp implements fcmpl/fcmpg and dcmpl/dcmpg NaN semantics.
func fcmp(a, b float64, gVariant bool) int32 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if gVariant {
			return 1
		}
		return -1
	}
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// intCond evaluates the if<cond> family given the base opcode offset.
func intCond(op bytecode.Opcode, a, b int32) bool {
	switch op {
	case bytecode.Ifeq:
		return a == b
	case bytecode.Ifne:
		return a != b
	case bytecode.Iflt:
		return a < b
	case bytecode.Ifge:
		return a >= b
	case bytecode.Ifgt:
		return a > b
	case bytecode.Ifle:
		return a <= b
	}
	return false
}

// f2i implements the JVM's saturating float-to-int conversion.
func f2i(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	return int32(v)
}

// f2l implements the JVM's saturating float-to-long conversion.
func f2l(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}
