package jvm

import (
	"fmt"
	"math"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
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

// frame is one interpreter activation record.
type frame struct {
	method *Method
	locals []Value
	stack  []Value
	sp     int
}

const maxCallDepth = 2048

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
	if m.Native != nil {
		// Native frames still appear on the stack so introspection and GC
		// see them; locals hold the arguments.
		f := &frame{method: m, locals: args}
		t.frames = append(t.frames, f)
		v, thrown, err := m.Native(t, args)
		t.frames = t.frames[:len(t.frames)-1]
		return v, thrown, err
	}
	if m.Code == nil {
		return Value{}, nil, vmErrorf(m, 0, "invoking abstract or code-less method")
	}
	if !m.prepared {
		if err := m.prepare(); err != nil {
			return Value{}, nil, err
		}
	}
	if vm.OnMethodEnter != nil {
		vm.OnMethodEnter(m.Class.Name, m.Name)
	}
	f := &frame{
		method: m,
		locals: make([]Value, int(m.Code.MaxLocals)+1),
		stack:  make([]Value, int(m.Code.MaxStack)+2),
	}
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
	v, thrown, err := t.run(f)
	t.frames = t.frames[:len(t.frames)-1]
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

// run is the interpreter loop for one frame.
func (t *Thread) run(f *frame) (Value, *Object, error) {
	vm := t.vm
	m := f.method
	insts := m.insts
	idx := 0

	push := func(v Value) bool {
		if f.sp >= len(f.stack) {
			return false
		}
		f.stack[f.sp] = v
		f.sp++
		return true
	}
	pop := func() Value {
		f.sp--
		return f.stack[f.sp]
	}
	// push2/pop2 handle wide values with their pad slot.
	push2 := func(v Value) bool { return push(v) && push(padV()) }
	pop2 := func() Value {
		f.sp -= 2
		return f.stack[f.sp]
	}

	var thrown *Object

	for {
		if idx < 0 || idx >= len(insts) {
			return Value{}, nil, vmErrorf(m, idx, "control fell off the end of the method")
		}
		vm.Stats.InstructionsExecuted++
		if vm.MaxInstructions > 0 && vm.Stats.InstructionsExecuted > vm.MaxInstructions {
			return Value{}, nil, vmErrorf(m, idx, "instruction budget %d exhausted", vm.MaxInstructions)
		}
		in := &insts[idx]
		if vm.TraceOpcodes {
			vm.OpcodeCounts[in.Op]++
		}
		next := idx + 1
		thrown = nil

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
			v, err := vm.constantValue(m.Class.File.Pool, in.Index)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "ldc: %v", err)
			}
			if v.Wide() {
				return Value{}, nil, vmErrorf(m, idx, "ldc of two-slot constant")
			}
			push(v)
		case bytecode.Ldc2W:
			v, err := vm.constantValue(m.Class.File.Pool, in.Index)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "ldc2_w: %v", err)
			}
			if !v.Wide() {
				return Value{}, nil, vmErrorf(m, idx, "ldc2_w of one-slot constant")
			}
			push2(v)

		// Loads.
		case bytecode.Iload, bytecode.Fload, bytecode.Aload:
			push(f.locals[in.Index])
		case bytecode.Lload, bytecode.Dload:
			push2(f.locals[in.Index])
		case bytecode.Iload0, bytecode.Iload1, bytecode.Iload2, bytecode.Iload3:
			push(f.locals[in.Op-bytecode.Iload0])
		case bytecode.Lload0, bytecode.Lload1, bytecode.Lload2, bytecode.Lload3:
			push2(f.locals[in.Op-bytecode.Lload0])
		case bytecode.Fload0, bytecode.Fload1, bytecode.Fload2, bytecode.Fload3:
			push(f.locals[in.Op-bytecode.Fload0])
		case bytecode.Dload0, bytecode.Dload1, bytecode.Dload2, bytecode.Dload3:
			push2(f.locals[in.Op-bytecode.Dload0])
		case bytecode.Aload0, bytecode.Aload1, bytecode.Aload2, bytecode.Aload3:
			push(f.locals[in.Op-bytecode.Aload0])

		// Stores.
		case bytecode.Istore, bytecode.Fstore, bytecode.Astore:
			f.locals[in.Index] = pop()
		case bytecode.Lstore, bytecode.Dstore:
			f.locals[in.Index] = pop2()
			f.locals[in.Index+1] = padV()
		case bytecode.Istore0, bytecode.Istore1, bytecode.Istore2, bytecode.Istore3:
			f.locals[in.Op-bytecode.Istore0] = pop()
		case bytecode.Lstore0, bytecode.Lstore1, bytecode.Lstore2, bytecode.Lstore3:
			i := int(in.Op - bytecode.Lstore0)
			f.locals[i] = pop2()
			f.locals[i+1] = padV()
		case bytecode.Fstore0, bytecode.Fstore1, bytecode.Fstore2, bytecode.Fstore3:
			f.locals[in.Op-bytecode.Fstore0] = pop()
		case bytecode.Dstore0, bytecode.Dstore1, bytecode.Dstore2, bytecode.Dstore3:
			i := int(in.Op - bytecode.Dstore0)
			f.locals[i] = pop2()
			f.locals[i+1] = padV()
		case bytecode.Astore0, bytecode.Astore1, bytecode.Astore2, bytecode.Astore3:
			f.locals[in.Op-bytecode.Astore0] = pop()

		// Array loads.
		case bytecode.Iaload, bytecode.Faload, bytecode.Aaload, bytecode.Baload,
			bytecode.Caload, bytecode.Saload:
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = vm.Throw("java/lang/NullPointerException", "array load")
				break
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = vm.Throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				break
			}
			push(a.Elems[i])
		case bytecode.Laload, bytecode.Daload:
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = vm.Throw("java/lang/NullPointerException", "array load")
				break
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = vm.Throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				break
			}
			push2(a.Elems[i])

		// Array stores.
		case bytecode.Iastore, bytecode.Fastore, bytecode.Bastore,
			bytecode.Castore, bytecode.Sastore:
			v := pop()
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = vm.Throw("java/lang/NullPointerException", "array store")
				break
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = vm.Throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				break
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
				thrown = vm.Throw("java/lang/NullPointerException", "array store")
				break
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = vm.Throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				break
			}
			a.Elems[i] = v
		case bytecode.Aastore:
			v := pop()
			i := pop().Int()
			a := pop().Ref()
			if a == nil {
				thrown = vm.Throw("java/lang/NullPointerException", "array store")
				break
			}
			if int(i) < 0 || int(i) >= a.Len() {
				thrown = vm.Throw("java/lang/ArrayIndexOutOfBoundsException", fmt.Sprintf("index %d, length %d", i, a.Len()))
				break
			}
			if v.R != nil && a.Class.Elem != nil && !v.R.Class.AssignableTo(a.Class.Elem) {
				thrown = vm.Throw("java/lang/ArrayStoreException", v.R.Class.Name)
				break
			}
			a.Elems[i] = v

		// Stack manipulation (slot-oriented; pads flow naturally).
		case bytecode.Pop:
			pop()
		case bytecode.Pop2:
			pop()
			pop()
		case bytecode.Dup:
			v := f.stack[f.sp-1]
			push(v)
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
			v1 := f.stack[f.sp-1]
			v2 := f.stack[f.sp-2]
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
				thrown = vm.Throw("java/lang/ArithmeticException", "/ by zero")
				break
			}
			if a == math.MinInt32 && b == -1 {
				push(IntV(math.MinInt32))
			} else {
				push(IntV(a / b))
			}
		case bytecode.Irem:
			b, a := pop().Int(), pop().Int()
			if b == 0 {
				thrown = vm.Throw("java/lang/ArithmeticException", "% by zero")
				break
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
			f.locals[in.Index] = IntV(f.locals[in.Index].Int() + in.Const)

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
				thrown = vm.Throw("java/lang/ArithmeticException", "/ by zero")
				break
			}
			if a == math.MinInt64 && b == -1 {
				push2(LongV(math.MinInt64))
			} else {
				push2(LongV(a / b))
			}
		case bytecode.Lrem:
			b, a := pop2().Long(), pop2().Long()
			if b == 0 {
				thrown = vm.Throw("java/lang/ArithmeticException", "% by zero")
				break
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
				next = in.Target
			}
		case bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt,
			bytecode.IfIcmpge, bytecode.IfIcmpgt, bytecode.IfIcmple:
			b, a := pop().Int(), pop().Int()
			if intCond(in.Op-(bytecode.IfIcmpeq-bytecode.Ifeq), a, b) {
				next = in.Target
			}
		case bytecode.IfAcmpeq:
			b, a := pop().Ref(), pop().Ref()
			if a == b {
				next = in.Target
			}
		case bytecode.IfAcmpne:
			b, a := pop().Ref(), pop().Ref()
			if a != b {
				next = in.Target
			}
		case bytecode.Ifnull:
			if pop().Ref() == nil {
				next = in.Target
			}
		case bytecode.Ifnonnull:
			if pop().Ref() != nil {
				next = in.Target
			}
		case bytecode.Goto, bytecode.GotoW:
			next = in.Target
		case bytecode.Jsr, bytecode.JsrW:
			push(retAddrV(next))
			next = in.Target
		case bytecode.Ret:
			ra := f.locals[in.Index]
			if ra.Kind != KindRetAddr {
				return Value{}, nil, vmErrorf(m, idx, "ret on non-returnAddress local %d", in.Index)
			}
			next = int(ra.I)
		case bytecode.Tableswitch:
			v := pop().Int()
			sw := in.Switch
			if v >= sw.Low && int64(v) < int64(sw.Low)+int64(len(sw.Targets)) {
				next = sw.Targets[v-sw.Low]
			} else {
				next = sw.Default
			}
		case bytecode.Lookupswitch:
			v := pop().Int()
			sw := in.Switch
			next = sw.Default
			lo, hi := 0, len(sw.Keys)-1
			for lo <= hi {
				mid := (lo + hi) / 2
				switch {
				case sw.Keys[mid] == v:
					next = sw.Targets[mid]
					lo = hi + 1
				case sw.Keys[mid] < v:
					lo = mid + 1
				default:
					hi = mid - 1
				}
			}

		// Returns.
		case bytecode.Ireturn, bytecode.Freturn, bytecode.Areturn:
			return pop(), nil, nil
		case bytecode.Lreturn, bytecode.Dreturn:
			return pop2(), nil, nil
		case bytecode.Return:
			return Value{}, nil, nil

		// Field access.
		case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
			var err error
			thrown, err = t.execField(f, in, push, pop, push2, pop2)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "%v", err)
			}

		// Invocations.
		case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic,
			bytecode.Invokeinterface:
			var err error
			thrown, err = t.execInvoke(f, in, push, push2)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "%v", err)
			}

		// Allocation.
		case bytecode.New:
			cn, err := m.Class.File.Pool.ClassName(in.Index)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "new: %v", err)
			}
			c, err := vm.Class(cn)
			if err != nil {
				thrown = vm.Throw("java/lang/NoClassDefFoundError", cn)
				break
			}
			if th, err := vm.EnsureInitialized(t, c); th != nil || err != nil {
				if err != nil {
					return Value{}, nil, err
				}
				thrown = th
				break
			}
			push(RefV(vm.NewInstance(c)))
		case bytecode.Newarray:
			n := pop().Int()
			if n < 0 {
				thrown = vm.Throw("java/lang/NegativeArraySizeException", fmt.Sprint(n))
				break
			}
			desc := primDescForAType(in.ArrayType)
			ac, err := vm.arrayClass(desc)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "newarray: %v", err)
			}
			push(RefV(vm.NewArray(ac, int(n))))
		case bytecode.Anewarray:
			n := pop().Int()
			if n < 0 {
				thrown = vm.Throw("java/lang/NegativeArraySizeException", fmt.Sprint(n))
				break
			}
			cn, err := m.Class.File.Pool.ClassName(in.Index)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "anewarray: %v", err)
			}
			var elemDesc string
			if cn[0] == '[' {
				elemDesc = cn
			} else {
				elemDesc = "L" + cn + ";"
			}
			ac, err := vm.arrayClass(elemDesc)
			if err != nil {
				thrown = vm.Throw("java/lang/NoClassDefFoundError", cn)
				break
			}
			push(RefV(vm.NewArray(ac, int(n))))
		case bytecode.Multianewarray:
			cn, err := m.Class.File.Pool.ClassName(in.Index)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "multianewarray: %v", err)
			}
			dims := make([]int32, in.Dims)
			for i := int(in.Dims) - 1; i >= 0; i-- {
				dims[i] = pop().Int()
			}
			neg := false
			for _, d := range dims {
				if d < 0 {
					neg = true
				}
			}
			if neg {
				thrown = vm.Throw("java/lang/NegativeArraySizeException", "")
				break
			}
			arr, err := vm.newMultiArray(cn, dims)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "multianewarray: %v", err)
			}
			push(RefV(arr))
		case bytecode.Arraylength:
			a := pop().Ref()
			if a == nil {
				thrown = vm.Throw("java/lang/NullPointerException", "arraylength")
				break
			}
			push(IntV(int32(a.Len())))

		case bytecode.Athrow:
			ex := pop().Ref()
			if ex == nil {
				ex = vm.Throw("java/lang/NullPointerException", "athrow of null")
			}
			thrown = ex

		case bytecode.Checkcast:
			v := f.stack[f.sp-1]
			if v.Ref() != nil {
				target, err := t.resolveClassOperand(in.Index)
				if err != nil {
					return Value{}, nil, vmErrorf(m, idx, "checkcast: %v", err)
				}
				if !v.Ref().Class.AssignableTo(target) {
					pop()
					thrown = vm.Throw("java/lang/ClassCastException",
						v.Ref().Class.Name+" cannot be cast to "+target.Name)
				}
			}
		case bytecode.Instanceof:
			v := pop()
			if v.Ref() == nil {
				push(IntV(0))
				break
			}
			target, err := t.resolveClassOperand(in.Index)
			if err != nil {
				return Value{}, nil, vmErrorf(m, idx, "instanceof: %v", err)
			}
			if v.Ref().Class.AssignableTo(target) {
				push(IntV(1))
			} else {
				push(IntV(0))
			}

		// DVM native-format extension opcodes (centralized compilation
		// service output, §3.4).
		case bytecode.ExtLoadAdd:
			push(IntV(f.locals[in.Index].Int() + f.locals[in.ArrayType].Int()))
		case bytecode.ExtLoadMul:
			push(IntV(f.locals[in.Index].Int() * f.locals[in.ArrayType].Int()))
		case bytecode.ExtCmpBranch:
			a := f.locals[in.Index].Int()
			b := f.locals[in.ArrayType].Int()
			if intCond(bytecode.Ifeq+bytecode.Opcode(in.Count), a, b) {
				next = in.Target
			}
		case bytecode.ExtIincLoad:
			v := f.locals[in.Index].Int() + in.Const
			f.locals[in.Index] = IntV(v)
			push(IntV(v))

		case bytecode.Monitorenter, bytecode.Monitorexit:
			o := pop().Ref()
			if o == nil {
				thrown = vm.Throw("java/lang/NullPointerException", "monitor on null")
				break
			}
			vm.Stats.MonitorOps++

		default:
			return Value{}, nil, vmErrorf(m, idx, "unimplemented opcode %s", in.Op.Name())
		}

		if thrown != nil {
			handlerIdx, ok := t.findHandler(m, idx, thrown)
			if !ok {
				return Value{}, thrown, nil
			}
			f.sp = 0
			push(RefV(thrown))
			next = handlerIdx
		}
		idx = next
	}
}

// findHandler locates the innermost matching exception handler for the
// instruction index.
func (t *Thread) findHandler(m *Method, idx int, ex *Object) (int, bool) {
	for _, h := range m.handlers {
		if idx < h.startIdx || idx >= h.endIdx {
			continue
		}
		if h.catchType == "" {
			return h.handlerIdx, true
		}
		cc, err := t.vm.Class(h.catchType)
		if err != nil {
			continue
		}
		if ex.Class.AssignableTo(cc) {
			return h.handlerIdx, true
		}
	}
	return 0, false
}

func (t *Thread) resolveClassOperand(cpIdx uint16) (*Class, error) {
	m := t.frames[len(t.frames)-1].method
	cn, err := m.Class.File.Pool.ClassName(cpIdx)
	if err != nil {
		return nil, err
	}
	return t.vm.Class(cn)
}

// resolveFieldSite builds (or returns) the cached resolution for a field
// access instruction.
func (t *Thread) resolveFieldSite(m *Method, in *bytecode.Inst) (*fieldSite, *Object, error) {
	if s, ok := m.fieldSites[in.Index]; ok {
		return s, nil, nil
	}
	vm := t.vm
	ref, err := m.Class.File.Pool.Ref(in.Index)
	if err != nil {
		return nil, nil, err
	}
	owner, err := vm.Class(ref.Class)
	if err != nil {
		return nil, vm.Throw("java/lang/NoClassDefFoundError", ref.Class), nil
	}
	s := &fieldSite{ref: ref, wide: ref.Desc == "J" || ref.Desc == "D"}
	if in.Op == bytecode.Getstatic || in.Op == bytecode.Putstatic {
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
	if m.fieldSites == nil {
		m.fieldSites = make(map[uint16]*fieldSite)
	}
	m.fieldSites[in.Index] = s
	return s, nil, nil
}

// execField implements getstatic/putstatic/getfield/putfield.
func (t *Thread) execField(f *frame, in *bytecode.Inst,
	push func(Value) bool, pop func() Value,
	push2 func(Value) bool, pop2 func() Value) (*Object, error) {
	vm := t.vm
	s, thrown, err := t.resolveFieldSite(f.method, in)
	if thrown != nil || err != nil {
		return thrown, err
	}
	switch in.Op {
	case bytecode.Getstatic, bytecode.Putstatic:
		if s.holder.initState == 0 {
			if th, err := vm.EnsureInitialized(t, s.holder); th != nil || err != nil {
				return th, err
			}
		}
		if in.Op == bytecode.Getstatic {
			if s.wide {
				push2(s.holder.GetStatic(s.slot))
			} else {
				push(s.holder.GetStatic(s.slot))
			}
		} else {
			var v Value
			if s.wide {
				v = pop2()
			} else {
				v = pop()
			}
			s.holder.SetStatic(s.slot, v)
		}
	case bytecode.Getfield:
		o := pop().Ref()
		if o == nil {
			return vm.Throw("java/lang/NullPointerException", s.ref.String()), nil
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
			return vm.Throw("java/lang/NullPointerException", s.ref.String()), nil
		}
		o.SetField(s.slot, v)
	}
	return nil, nil
}

// resolveInvokeSite builds (or returns) the cached resolution for one
// invocation instruction.
func (t *Thread) resolveInvokeSite(m *Method, in *bytecode.Inst) (*invokeSite, *Object, error) {
	if s, ok := m.invokeSites[in.Index]; ok {
		return s, nil, nil
	}
	vm := t.vm
	ref, err := m.Class.File.Pool.Ref(in.Index)
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
		hasRecv:  in.Op != bytecode.Invokestatic,
		total:    mt.ParamSlots(),
		owner:    owner,
	}
	if s.hasRecv {
		s.total++
	}
	if in.Op == bytecode.Invokestatic || in.Op == bytecode.Invokespecial {
		s.resolved = owner.LookupMethod(ref.Name, ref.Desc)
		if s.resolved == nil {
			return nil, vm.Throw("java/lang/NoSuchMethodError", ref.String()), nil
		}
	}
	if m.invokeSites == nil {
		m.invokeSites = make(map[uint16]*invokeSite)
	}
	m.invokeSites[in.Index] = s
	return s, nil, nil
}

// execInvoke implements the four invocation instructions.
func (t *Thread) execInvoke(f *frame, in *bytecode.Inst,
	push func(Value) bool, push2 func(Value) bool) (*Object, error) {
	vm := t.vm
	s, thrown, err := t.resolveInvokeSite(f.method, in)
	if thrown != nil || err != nil {
		return thrown, err
	}
	if f.sp < s.total {
		return nil, fmt.Errorf("operand stack underflow invoking %s", s.ref)
	}
	slots := f.stack[f.sp-s.total : f.sp]
	f.sp -= s.total

	// Collapse slot sequence into argument values (drop pads).
	args := make([]Value, 0, s.total)
	for i := 0; i < len(slots); i++ {
		args = append(args, slots[i])
		if slots[i].Wide() {
			i++ // skip pad
		}
	}

	var callee *Method
	switch in.Op {
	case bytecode.Invokestatic:
		if s.owner.initState == 0 {
			if th, err := vm.EnsureInitialized(t, s.owner); th != nil || err != nil {
				return th, err
			}
		}
		callee = s.resolved
	case bytecode.Invokespecial:
		callee = s.resolved
	case bytecode.Invokevirtual, bytecode.Invokeinterface:
		recv := args[0].Ref()
		if recv == nil {
			return vm.Throw("java/lang/NullPointerException", "invoke on null receiver: "+s.ref.String()), nil
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
		return vm.Throw("java/lang/NoSuchMethodError", s.ref.String()), nil
	}
	if s.hasRecv && args[0].Ref() == nil && in.Op != bytecode.Invokespecial {
		return vm.Throw("java/lang/NullPointerException", s.ref.String()), nil
	}
	if callee.Flags&classfile.AccAbstract != 0 {
		return vm.Throw("java/lang/AbstractMethodError", callee.String()), nil
	}

	ret, thrown, err := t.Invoke(callee, args)
	if err != nil {
		return nil, err
	}
	if thrown != nil {
		return thrown, nil
	}
	if s.retSlots == 2 {
		push2(ret)
	} else if s.retSlots == 1 {
		push(ret)
	}
	return nil, nil
}

// newMultiArray recursively allocates a multi-dimensional array.
// className is the array class internal name (e.g. "[[I").
func (vm *VM) newMultiArray(className string, dims []int32) (*Object, error) {
	ac, err := vm.Class(className)
	if err != nil {
		return nil, err
	}
	arr := vm.NewArray(ac, int(dims[0]))
	if len(dims) > 1 {
		elemName := ac.ElemDesc
		for i := range arr.Elems {
			sub, err := vm.newMultiArray(elemName, dims[1:])
			if err != nil {
				return nil, err
			}
			arr.Elems[i] = RefV(sub)
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
