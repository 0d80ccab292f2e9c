package classgen

import (
	"fmt"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// Label identifies a forward- or backward-referenced position in a method
// body under construction.
type Label int

// MethodBuilder assembles one method body. Emitters append instructions;
// labels mark join points; Build on the owning ClassBuilder resolves
// everything and computes max_stack / max_locals.
type MethodBuilder struct {
	class *ClassBuilder
	flags uint16
	name  string
	desc  string

	insts     []bytecode.Inst
	usesLabel []bool // parallel to insts: Target/Switch hold Label values
	marks     []int  // label -> instruction index (-1 = unbound)
	handlers  []handlerRec
	maxLocals int
	err       error
	done      bool
}

type handlerRec struct {
	start, end, handler Label
	catchType           string // "" for catch-all
}

func (m *MethodBuilder) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// NewLabel allocates an unbound label.
func (m *MethodBuilder) NewLabel() Label {
	m.marks = append(m.marks, -1)
	return Label(len(m.marks) - 1)
}

// Mark binds the label to the position of the next emitted instruction.
func (m *MethodBuilder) Mark(l Label) {
	if int(l) >= len(m.marks) {
		m.fail("mark of unallocated label %d", l)
		return
	}
	if m.marks[l] != -1 {
		m.fail("label %d marked twice", l)
		return
	}
	m.marks[l] = len(m.insts)
}

// Here allocates a label bound at the current position (for back edges).
func (m *MethodBuilder) Here() Label {
	l := m.NewLabel()
	m.Mark(l)
	return l
}

func (m *MethodBuilder) emit(in bytecode.Inst) {
	in.Target = -1
	m.insts = append(m.insts, in)
	m.usesLabel = append(m.usesLabel, false)
}

func (m *MethodBuilder) emitBranch(op bytecode.Opcode, l Label) {
	m.insts = append(m.insts, bytecode.Inst{Op: op, Target: int(l)})
	m.usesLabel = append(m.usesLabel, true)
}

func (m *MethodBuilder) touchLocal(idx uint16, slots int) {
	if n := int(idx) + slots; n > m.maxLocals {
		m.maxLocals = n
	}
}

// Raw emits an arbitrary pre-built instruction (no label resolution on
// its Target). Escape hatch for opcodes without a dedicated emitter.
func (m *MethodBuilder) Raw(in bytecode.Inst) *MethodBuilder {
	if in.Op.IsSwitch() || in.Op.IsBranch() {
		m.fail("Raw cannot emit control transfer %s; use Branch/Goto/switch builders", in.Op.Name())
		return m
	}
	switch in.Op.OperandKind() {
	case bytecode.KindLocal:
		slots := 1
		switch in.Op {
		case bytecode.Lload, bytecode.Dload, bytecode.Lstore, bytecode.Dstore:
			slots = 2
		}
		m.touchLocal(in.Index, slots)
	case bytecode.KindIinc:
		m.touchLocal(in.Index, 1)
	default:
		// Short-form load/store opcodes imply their local index.
		if idx, slots, ok := impliedLocal(in.Op); ok {
			m.touchLocal(idx, slots)
		}
	}
	m.emit(in)
	return m
}

// impliedLocal reports the local variable slot touched by the short-form
// load/store opcodes (iload_0 ... astore_3).
func impliedLocal(op bytecode.Opcode) (idx uint16, slots int, ok bool) {
	families := []struct {
		base  bytecode.Opcode
		slots int
	}{
		{bytecode.Iload0, 1}, {bytecode.Lload0, 2}, {bytecode.Fload0, 1},
		{bytecode.Dload0, 2}, {bytecode.Aload0, 1},
		{bytecode.Istore0, 1}, {bytecode.Lstore0, 2}, {bytecode.Fstore0, 1},
		{bytecode.Dstore0, 2}, {bytecode.Astore0, 1},
	}
	for _, f := range families {
		if op >= f.base && op <= f.base+3 {
			return uint16(op - f.base), f.slots, true
		}
	}
	return 0, 0, false
}

// Inst emits a zero-operand instruction.
func (m *MethodBuilder) Inst(op bytecode.Opcode) *MethodBuilder {
	m.emit(bytecode.Inst{Op: op})
	return m
}

// Nop, stack and arithmetic conveniences.
func (m *MethodBuilder) Nop() *MethodBuilder    { return m.Inst(bytecode.Nop) }
func (m *MethodBuilder) Pop() *MethodBuilder    { return m.Inst(bytecode.Pop) }
func (m *MethodBuilder) Dup() *MethodBuilder    { return m.Inst(bytecode.Dup) }
func (m *MethodBuilder) Swap() *MethodBuilder   { return m.Inst(bytecode.Swap) }
func (m *MethodBuilder) IAdd() *MethodBuilder   { return m.Inst(bytecode.Iadd) }
func (m *MethodBuilder) ISub() *MethodBuilder   { return m.Inst(bytecode.Isub) }
func (m *MethodBuilder) IMul() *MethodBuilder   { return m.Inst(bytecode.Imul) }
func (m *MethodBuilder) IDiv() *MethodBuilder   { return m.Inst(bytecode.Idiv) }
func (m *MethodBuilder) IRem() *MethodBuilder   { return m.Inst(bytecode.Irem) }
func (m *MethodBuilder) Return() *MethodBuilder { return m.Inst(bytecode.Return) }
func (m *MethodBuilder) IReturn() *MethodBuilder {
	return m.Inst(bytecode.Ireturn)
}
func (m *MethodBuilder) AReturn() *MethodBuilder {
	return m.Inst(bytecode.Areturn)
}
func (m *MethodBuilder) LReturn() *MethodBuilder {
	return m.Inst(bytecode.Lreturn)
}
func (m *MethodBuilder) AThrow() *MethodBuilder { return m.Inst(bytecode.Athrow) }
func (m *MethodBuilder) ArrayLength() *MethodBuilder {
	return m.Inst(bytecode.Arraylength)
}
func (m *MethodBuilder) AConstNull() *MethodBuilder {
	return m.Inst(bytecode.AconstNull)
}

// IConst pushes an int constant using the smallest encoding.
func (m *MethodBuilder) IConst(v int32) *MethodBuilder {
	switch {
	case v >= -1 && v <= 5:
		m.emit(bytecode.Inst{Op: bytecode.Opcode(int32(bytecode.Iconst0) + v)})
	case v >= -128 && v <= 127:
		m.emit(bytecode.Inst{Op: bytecode.Bipush, Const: v})
	case v >= -32768 && v <= 32767:
		m.emit(bytecode.Inst{Op: bytecode.Sipush, Const: v})
	default:
		idx := m.class.Pool().AddInteger(v)
		m.emit(bytecode.Inst{Op: bytecode.Ldc, Index: idx})
	}
	return m
}

// LConst pushes a long constant.
func (m *MethodBuilder) LConst(v int64) *MethodBuilder {
	switch v {
	case 0:
		m.emit(bytecode.Inst{Op: bytecode.Lconst0})
	case 1:
		m.emit(bytecode.Inst{Op: bytecode.Lconst1})
	default:
		idx := m.class.Pool().AddLong(v)
		m.emit(bytecode.Inst{Op: bytecode.Ldc2W, Index: idx})
	}
	return m
}

// FConst pushes a float constant.
func (m *MethodBuilder) FConst(v float32) *MethodBuilder {
	switch v {
	case 0:
		m.emit(bytecode.Inst{Op: bytecode.Fconst0})
	case 1:
		m.emit(bytecode.Inst{Op: bytecode.Fconst1})
	case 2:
		m.emit(bytecode.Inst{Op: bytecode.Fconst2})
	default:
		idx := m.class.Pool().AddFloat(v)
		m.emit(bytecode.Inst{Op: bytecode.Ldc, Index: idx})
	}
	return m
}

// DConst pushes a double constant.
func (m *MethodBuilder) DConst(v float64) *MethodBuilder {
	switch v {
	case 0:
		m.emit(bytecode.Inst{Op: bytecode.Dconst0})
	case 1:
		m.emit(bytecode.Inst{Op: bytecode.Dconst1})
	default:
		idx := m.class.Pool().AddDouble(v)
		m.emit(bytecode.Inst{Op: bytecode.Ldc2W, Index: idx})
	}
	return m
}

// LdcString pushes a String constant.
func (m *MethodBuilder) LdcString(s string) *MethodBuilder {
	idx := m.class.Pool().AddString(s)
	m.emit(bytecode.Inst{Op: bytecode.Ldc, Index: idx})
	return m
}

func (m *MethodBuilder) load(base, short0 bytecode.Opcode, idx uint16, slots int) {
	m.touchLocal(idx, slots)
	if idx < 4 {
		m.emit(bytecode.Inst{Op: short0 + bytecode.Opcode(idx)})
		return
	}
	m.emit(bytecode.Inst{Op: base, Index: idx})
}

// ILoad/LLoad/FLoad/DLoad/ALoad load a local variable.
func (m *MethodBuilder) ILoad(idx uint16) *MethodBuilder {
	m.load(bytecode.Iload, bytecode.Iload0, idx, 1)
	return m
}
func (m *MethodBuilder) LLoad(idx uint16) *MethodBuilder {
	m.load(bytecode.Lload, bytecode.Lload0, idx, 2)
	return m
}
func (m *MethodBuilder) FLoad(idx uint16) *MethodBuilder {
	m.load(bytecode.Fload, bytecode.Fload0, idx, 1)
	return m
}
func (m *MethodBuilder) DLoad(idx uint16) *MethodBuilder {
	m.load(bytecode.Dload, bytecode.Dload0, idx, 2)
	return m
}
func (m *MethodBuilder) ALoad(idx uint16) *MethodBuilder {
	m.load(bytecode.Aload, bytecode.Aload0, idx, 1)
	return m
}

// IStore/AStore store into a local variable.
func (m *MethodBuilder) IStore(idx uint16) *MethodBuilder {
	m.load(bytecode.Istore, bytecode.Istore0, idx, 1)
	return m
}
func (m *MethodBuilder) AStore(idx uint16) *MethodBuilder {
	m.load(bytecode.Astore, bytecode.Astore0, idx, 1)
	return m
}

// IInc increments local idx by delta.
func (m *MethodBuilder) IInc(idx uint16, delta int32) *MethodBuilder {
	m.touchLocal(idx, 1)
	m.emit(bytecode.Inst{Op: bytecode.Iinc, Index: idx, Const: delta})
	return m
}

// Branch emits a conditional or unconditional branch to a label.
func (m *MethodBuilder) Branch(op bytecode.Opcode, l Label) *MethodBuilder {
	if !op.IsBranch() {
		m.fail("Branch with non-branch opcode %s", op.Name())
		return m
	}
	m.emitBranch(op, l)
	return m
}

// Goto emits an unconditional jump to a label.
func (m *MethodBuilder) Goto(l Label) *MethodBuilder {
	m.emitBranch(bytecode.Goto, l)
	return m
}

// TableSwitch emits a tableswitch covering keys low..low+len(arms)-1.
func (m *MethodBuilder) TableSwitch(low int32, def Label, arms ...Label) *MethodBuilder {
	sw := &bytecode.Switch{Low: low, Default: int(def)}
	for _, a := range arms {
		sw.Targets = append(sw.Targets, int(a))
	}
	m.insts = append(m.insts, bytecode.Inst{Op: bytecode.Tableswitch, Switch: sw})
	m.usesLabel = append(m.usesLabel, true)
	return m
}

// LookupSwitch emits a lookupswitch with the given sorted keys.
func (m *MethodBuilder) LookupSwitch(def Label, keys []int32, arms []Label) *MethodBuilder {
	if len(keys) != len(arms) {
		m.fail("LookupSwitch keys/arms length mismatch")
		return m
	}
	sw := &bytecode.Switch{Default: int(def), Keys: append([]int32(nil), keys...)}
	for _, a := range arms {
		sw.Targets = append(sw.Targets, int(a))
	}
	m.insts = append(m.insts, bytecode.Inst{Op: bytecode.Lookupswitch, Switch: sw})
	m.usesLabel = append(m.usesLabel, true)
	return m
}

// GetStatic/PutStatic/GetField/PutField emit field accesses.
func (m *MethodBuilder) GetStatic(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Getstatic, Index: m.class.Pool().AddFieldref(class, name, desc)})
	return m
}
func (m *MethodBuilder) PutStatic(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Putstatic, Index: m.class.Pool().AddFieldref(class, name, desc)})
	return m
}
func (m *MethodBuilder) GetField(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Getfield, Index: m.class.Pool().AddFieldref(class, name, desc)})
	return m
}
func (m *MethodBuilder) PutField(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Putfield, Index: m.class.Pool().AddFieldref(class, name, desc)})
	return m
}

// InvokeVirtual/InvokeSpecial/InvokeStatic/InvokeInterface emit calls.
func (m *MethodBuilder) InvokeVirtual(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Invokevirtual, Index: m.class.Pool().AddMethodref(class, name, desc)})
	return m
}
func (m *MethodBuilder) InvokeSpecial(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Invokespecial, Index: m.class.Pool().AddMethodref(class, name, desc)})
	return m
}
func (m *MethodBuilder) InvokeStatic(class, name, desc string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Invokestatic, Index: m.class.Pool().AddMethodref(class, name, desc)})
	return m
}
func (m *MethodBuilder) InvokeInterface(class, name, desc string) *MethodBuilder {
	mt, err := bytecode.ParseMethodType(desc)
	if err != nil {
		m.fail("InvokeInterface %s.%s%s: %v", class, name, desc, err)
		return m
	}
	m.emit(bytecode.Inst{
		Op:    bytecode.Invokeinterface,
		Index: m.class.Pool().AddInterfaceMethodref(class, name, desc),
		Count: uint8(mt.ParamSlots() + 1),
	})
	return m
}

// New emits object allocation (without constructor call).
func (m *MethodBuilder) New(class string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.New, Index: m.class.Pool().AddClass(class)})
	return m
}

// NewObject emits new + dup + <init> invocation for a no-extra-argument
// pattern: callers push constructor arguments between NewDup and
// InvokeSpecial themselves when needed.
func (m *MethodBuilder) NewDup(class string) *MethodBuilder {
	m.New(class)
	m.Dup()
	return m
}

// NewArray emits a primitive array allocation.
func (m *MethodBuilder) NewArray(atype uint8) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Newarray, ArrayType: atype})
	return m
}

// ANewArray emits a reference array allocation.
func (m *MethodBuilder) ANewArray(class string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Anewarray, Index: m.class.Pool().AddClass(class)})
	return m
}

// CheckCast / InstanceOf emit type tests.
func (m *MethodBuilder) CheckCast(class string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Checkcast, Index: m.class.Pool().AddClass(class)})
	return m
}
func (m *MethodBuilder) InstanceOf(class string) *MethodBuilder {
	m.emit(bytecode.Inst{Op: bytecode.Instanceof, Index: m.class.Pool().AddClass(class)})
	return m
}

// Handler registers an exception handler over the region [start, end)
// with the handler entry at h; catchType "" catches everything.
func (m *MethodBuilder) Handler(start, end, h Label, catchType string) *MethodBuilder {
	m.handlers = append(m.handlers, handlerRec{start: start, end: end, handler: h, catchType: catchType})
	return m
}

// finish resolves labels, encodes the body, computes max_stack, and
// installs the method into the class.
func (m *MethodBuilder) finish() error {
	if m.err != nil {
		return m.err
	}
	if len(m.insts) == 0 {
		return fmt.Errorf("empty method body")
	}
	// resolveEnd additionally accepts a label bound exactly at the end of
	// the code (legal only as an exception-handler range end).
	resolveEnd := func(l int) (int, error) {
		if l < 0 || l >= len(m.marks) {
			return 0, fmt.Errorf("reference to unallocated label %d", l)
		}
		idx := m.marks[l]
		if idx < 0 {
			return 0, fmt.Errorf("reference to unbound label %d", l)
		}
		if idx > len(m.insts) {
			return 0, fmt.Errorf("label %d bound past end of code", l)
		}
		return idx, nil
	}
	resolve := func(l int) (int, error) {
		idx, err := resolveEnd(l)
		if err != nil {
			return 0, err
		}
		if idx >= len(m.insts) {
			return 0, fmt.Errorf("label %d bound past end of code", l)
		}
		return idx, nil
	}
	insts := make([]bytecode.Inst, len(m.insts))
	copy(insts, m.insts)
	for i := range insts {
		if !m.usesLabel[i] {
			continue
		}
		in := &insts[i]
		if in.Op.IsBranch() {
			idx, err := resolve(in.Target)
			if err != nil {
				return err
			}
			in.Target = idx
		} else if in.Op.IsSwitch() {
			sw := *in.Switch
			idx, err := resolve(sw.Default)
			if err != nil {
				return err
			}
			sw.Default = idx
			sw.Targets = append([]int(nil), in.Switch.Targets...)
			for k, t := range sw.Targets {
				idx, err := resolve(t)
				if err != nil {
					return err
				}
				sw.Targets[k] = idx
			}
			in.Switch = &sw
		}
	}

	var handlerStarts []int
	type rhandler struct{ s, e, h int }
	rhandlers := make([]rhandler, 0, len(m.handlers))
	for _, h := range m.handlers {
		s, err := resolve(int(h.start))
		if err != nil {
			return err
		}
		e, err := resolveEnd(int(h.end))
		if err != nil {
			return err
		}
		hh, err := resolve(int(h.handler))
		if err != nil {
			return err
		}
		rhandlers = append(rhandlers, rhandler{s, e, hh})
		handlerStarts = append(handlerStarts, hh)
	}

	code, pcs, err := bytecode.Encode(insts)
	if err != nil {
		return err
	}
	maxStack, err := bytecode.MaxStack(nil, insts, m.class.Pool(), handlerStarts)
	if err != nil {
		return err
	}
	codeAttr := &classfile.Code{
		MaxStack:  uint16(maxStack),
		MaxLocals: uint16(m.maxLocals),
		Bytecode:  code,
	}
	for i, h := range rhandlers {
		var catchIdx uint16
		if m.handlers[i].catchType != "" {
			catchIdx = m.class.Pool().AddClass(m.handlers[i].catchType)
		}
		// The protected range is [startPC, endPC): the end label marks the
		// first instruction no longer covered (or the end of the code).
		endPC := uint16(len(code))
		if h.e < len(pcs) {
			endPC = uint16(pcs[h.e])
		}
		codeAttr.Handlers = append(codeAttr.Handlers, classfile.ExceptionHandler{
			StartPC:   uint16(pcs[h.s]),
			EndPC:     endPC,
			HandlerPC: uint16(pcs[h.h]),
			CatchType: catchIdx,
		})
	}
	member := &classfile.Member{
		AccessFlags:     m.flags,
		NameIndex:       m.class.Pool().AddUtf8(m.name),
		DescriptorIndex: m.class.Pool().AddUtf8(m.desc),
	}
	if err := m.class.cf.SetCode(member, codeAttr); err != nil {
		return err
	}
	m.class.cf.Methods = append(m.class.cf.Methods, member)
	return nil
}
