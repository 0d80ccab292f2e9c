package verifier

import (
	"fmt"
	"strconv"
	"sync"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// Abstract value kinds for the dataflow lattice.
type vkind uint8

const (
	vtTop vkind = iota // unusable / merged-incompatible
	vtInt
	vtFloat
	vtLong
	vtLong2 // second slot of a long
	vtDouble
	vtDouble2 // second slot of a double
	vtRef
	vtNull
	vtRet        // returnAddress from jsr
	vtUninit     // result of `new`, before <init>
	vtUninitThis // `this` in a constructor, before super-call
)

// vt is one abstract slot value, interned into a word: the kind in the
// low byte, then the class (an id from the method's frames.names; for
// vtRef, vtUninit and vtUninitThis) and, for vtUninit, the allocation
// site (an instruction index). Two values are the same abstract value
// exactly when the words are equal.
type vt uint64

const (
	vtClassShift = 8
	vtSiteShift  = 40
)

func mkvt(k vkind, cls uint32, site int) vt {
	return vt(k) | vt(cls)<<vtClassShift | vt(site)<<vtSiteShift
}

func (v vt) kind() vkind { return vkind(v) }
func (v vt) cls() uint32 { return uint32(v >> vtClassShift) }
func (v vt) site() int   { return int(v >> vtSiteShift) }

const (
	tTop    = vt(vtTop)
	tInt    = vt(vtInt)
	tFloat  = vt(vtFloat)
	tLong   = vt(vtLong)
	tLong2  = vt(vtLong2)
	tDouble = vt(vtDouble)
	tDbl2   = vt(vtDouble2)
	tNull   = vt(vtNull)
	tRet    = vt(vtRet)
)

func (v vt) isOneSlotRefLike() bool {
	k := v.kind()
	return k == vtRef || k == vtNull || k == vtUninit || k == vtUninitThis
}

func (v vt) category() int {
	switch v.kind() {
	case vtLong, vtDouble:
		return 2
	case vtLong2, vtDouble2:
		return 0 // halves are not directly manipulable
	}
	return 1
}

// Class ids every method's interner starts with.
const (
	clsNone uint32 = iota
	clsObject
	clsThrowable
	clsString
	clsPreset
)

var presetClasses = [clsPreset]string{"", "java/lang/Object", "java/lang/Throwable", "java/lang/String"}

// frames is the working memory of one phase-3 run, taken from framePool
// so that in steady state verifying a method allocates nothing that grows
// with its length. In-frames — the abstract state at entry to each
// instruction reached so far — live back to back in slab, locals first
// and then the operand stack; the frame being interpreted is copied out
// into cur, which every transfer function updates in place.
type frames struct {
	ids   map[string]uint32 // class name or array descriptor -> id
	names []string          // id -> name
	key   []byte            // scratch for descriptors built to be looked up

	slab []vt
	in   []frameRef // per instruction: where its in-frame is
	work []int32    // instructions whose in-frame changed, last in first out
	exc  []vt       // per exception handler: the value its entry sees on the stack
	cur  []vt       // locals, then the operand stack
	sp   int        // operand stack height in cur

	// The method under verification.
	cf        *classfile.ClassFile
	insts     []bytecode.Inst
	census    *Census
	nlocals   int
	maxStack  int
	class     string
	mname     string
	mdesc     string
	ret       bytecode.Type
	inInit    bool
	thisClass uint32
}

// frameRef locates one instruction's in-frame: at is 1 + its offset in
// the slab (0 before the first visit), depth its operand stack height.
type frameRef struct{ at, depth int32 }

var framePool = sync.Pool{New: func() any {
	return &frames{ids: make(map[string]uint32)}
}}

// slabKeep bounds the in-frame memory and the worklist a pooled frames
// retains (in elements); a method that needed more gives it back to the
// collector. The other tables are bounded by the 64 KiB method limit.
const slabKeep = 1 << 16

func (f *frames) release() {
	f.cf, f.insts, f.census, f.ret = nil, nil, nil, bytecode.Type{}
	if cap(f.slab) > slabKeep {
		f.slab = nil
	}
	if cap(f.work) > slabKeep {
		f.work = nil
	}
	framePool.Put(f)
}

// reset sizes the per-instruction tables for a method of n instructions
// and empties the interner.
func (f *frames) reset(n, nlocals, maxStack, handlers int) {
	clear(f.ids)
	f.names = append(f.names[:0], presetClasses[:]...)
	for id, name := range presetClasses[1:] {
		f.ids[name] = uint32(id + 1)
	}
	f.slab, f.work = f.slab[:0], f.work[:0]
	if cap(f.in) < n {
		f.in = make([]frameRef, n)
	}
	f.in = f.in[:n]
	clear(f.in)
	if cap(f.exc) < handlers {
		f.exc = make([]vt, handlers)
	}
	f.exc = f.exc[:handlers]
	// One slot above max_stack for the return address jsr pushes onto the
	// frame it sends to the subroutine, and room for a handler's exception
	// when max_stack is 0.
	if need := nlocals + maxStack + 2; cap(f.cur) < need {
		f.cur = make([]vt, need)
	}
	f.cur = f.cur[:cap(f.cur)]
	f.nlocals, f.maxStack, f.sp = nlocals, maxStack, 0
}

// intern returns the id of a class name (or array descriptor).
func (f *frames) intern(name string) uint32 {
	if id, ok := f.ids[name]; ok {
		return id
	}
	id := uint32(len(f.names))
	f.names = append(f.names, name)
	f.ids[name] = id
	return id
}

// internKey is intern(string(f.key)) that allocates the string only the
// first time the method mentions it.
func (f *frames) internKey() uint32 {
	if id, ok := f.ids[string(f.key)]; ok {
		return id
	}
	return f.intern(string(f.key))
}

func (f *frames) ref(cls string) vt { return mkvt(vtRef, f.intern(cls), 0) }

// appendDescriptor renders t in descriptor syntax, as t.String() does.
func appendDescriptor(b []byte, t bytecode.Type) []byte {
	for t.Kind == bytecode.KArray {
		b = append(b, '[')
		t = *t.Elem
	}
	if t.Kind == bytecode.KObject {
		b = append(b, 'L')
		b = append(b, t.ClassName...)
		return append(b, ';')
	}
	return append(b, t.String()...)
}

func (f *frames) str(v vt) string {
	switch v.kind() {
	case vtTop:
		return "top"
	case vtInt:
		return "int"
	case vtFloat:
		return "float"
	case vtLong:
		return "long"
	case vtLong2:
		return "long2"
	case vtDouble:
		return "double"
	case vtDouble2:
		return "double2"
	case vtRef:
		return "ref(" + f.names[v.cls()] + ")"
	case vtNull:
		return "null"
	case vtRet:
		return "retaddr"
	case vtUninit:
		return "uninit(" + f.names[v.cls()] + "@" + strconv.Itoa(v.site()) + ")"
	case vtUninitThis:
		return "uninitThis"
	}
	return "?"
}

// merge joins two abstract values at a control-flow join. Incompatible
// reference classes join to java/lang/Object — the cross-class precision
// is exactly what the DVM defers to link-time assumptions, per §3.1.
func merge(a, b vt) vt {
	if a == b {
		return a
	}
	ak, bk := a.kind(), b.kind()
	if ak == bk {
		switch ak {
		case vtRef:
			return mkvt(vtRef, clsObject, 0)
		case vtUninit:
			return tTop // distinct allocation sites must not merge
		default:
			return a
		}
	}
	if ak == vtNull && bk == vtRef {
		return b
	}
	if bk == vtNull && ak == vtRef {
		return a
	}
	return tTop
}

func (f *frames) fail(idx int, format string, args ...any) error {
	pc := 0
	if idx >= 0 && idx < len(f.insts) {
		pc = f.insts[idx].PC
	}
	return &Error{Phase: 3, Class: f.class, Method: f.mname + f.mdesc,
		Msg: fmt.Sprintf("pc %d: ", pc) + fmt.Sprintf(format, args...)}
}

// phase3 runs the abstract interpreter over one method body: a worklist
// of instructions, one in-frame per instruction, merged at every edge
// into it and re-queued when the merge changed it.
func phase3(cf *classfile.ClassFile, m *classfile.Member, ed *rewrite.MethodEditor, census *Census) error {
	code, insts := ed.Code(), ed.Insts
	f := framePool.Get().(*frames)
	defer f.release()
	f.reset(len(insts), int(code.MaxLocals), int(code.MaxStack), len(ed.Handlers))
	f.cf, f.insts, f.census = cf, insts, census
	f.class, f.mname, f.mdesc = cf.Name(), cf.MemberName(m), cf.MemberDescriptor(m)
	f.inInit = f.mname == "<init>"
	f.thisClass = f.intern(f.class)

	mt, err := bytecode.MethodTypeAt(cf.Pool, m.DescriptorIndex)
	if err != nil {
		return f.fail(-1, "%v", err)
	}
	f.ret = mt.Ret

	// Initial frame.
	locals := f.cur[:f.nlocals]
	for i := range locals {
		locals[i] = tTop
	}
	slot := 0
	if m.AccessFlags&classfile.AccStatic == 0 {
		if len(locals) == 0 {
			return f.fail(-1, "parameters exceed max_locals %d", code.MaxLocals)
		}
		if f.inInit && f.class != "java/lang/Object" {
			locals[0] = mkvt(vtUninitThis, f.thisClass, 0)
		} else {
			locals[0] = mkvt(vtRef, f.thisClass, 0)
		}
		slot = 1
	}
	for _, p := range mt.Params {
		v, v2 := f.typeValue(p)
		if slot+p.Slots() > len(locals) {
			return f.fail(-1, "parameters exceed max_locals %d", code.MaxLocals)
		}
		locals[slot] = v
		if p.Slots() == 2 {
			locals[slot+1] = v2
		}
		slot += p.Slots()
	}

	// What each handler's entry finds on the stack.
	for i, h := range ed.Handlers {
		f.exc[i] = mkvt(vtRef, clsThrowable, 0)
		if h.CatchType != 0 {
			cn, err := cf.Pool.ClassName(h.CatchType)
			if err != nil {
				return f.fail(h.Target, "%v", err)
			}
			f.exc[i] = f.ref(cn)
		}
	}

	if err := f.mergeInto(0, nil); err != nil {
		return err
	}
	for len(f.work) > 0 {
		idx := int(f.work[len(f.work)-1])
		f.work = f.work[:len(f.work)-1]
		off, depth := int(f.in[idx].at-1), int(f.in[idx].depth)
		copy(f.cur, f.slab[off:off+f.nlocals+depth])
		f.sp = depth
		census.Phase3++

		// Exception edges: the handler sees this instruction's *entry*
		// locals — still what cur holds — with a one-element stack.
		for i := range ed.Handlers {
			if h := &ed.Handlers[i]; h.Start <= idx && idx < h.End {
				caught := [1]vt{f.exc[i]}
				if err := f.mergeInto(h.Target, caught[:]); err != nil {
					return err
				}
			}
		}

		flowEnds, err := f.step(idx)
		if err != nil {
			return err
		}
		if !flowEnds {
			if idx+1 >= len(insts) {
				return f.fail(idx, "control falls off the end of the method")
			}
			if err := f.mergeInto(idx+1, f.stack()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *frames) stack() []vt { return f.cur[f.nlocals : f.nlocals+f.sp] }

// mergeInto sends the working frame's locals, with the given operand
// stack, along an edge to instruction idx: copied into the slab on the
// first visit, merged in place into the in-frame afterwards. Either way
// the instruction is queued if its in-frame is new or changed.
func (f *frames) mergeInto(idx int, stack []vt) error {
	if idx < 0 || idx >= len(f.insts) {
		return f.fail(idx, "control transfer out of method")
	}
	locals := f.cur[:f.nlocals]
	if f.in[idx].at == 0 {
		f.in[idx] = frameRef{at: int32(len(f.slab)) + 1, depth: int32(len(stack))}
		f.slab = append(append(f.slab, locals...), stack...)
		f.work = append(f.work, int32(idx))
		return nil
	}
	f.census.Phase3++
	if int(f.in[idx].depth) != len(stack) {
		return f.fail(idx, "inconsistent stack height at join: %d vs %d", f.in[idx].depth, len(stack))
	}
	in := f.slab[f.in[idx].at-1:]
	changed := false
	for i, v := range locals {
		if nv := merge(in[i], v); nv != in[i] {
			in[i] = nv
			changed = true
		}
	}
	in = in[len(locals):]
	for i, v := range stack {
		if nv := merge(in[i], v); nv != in[i] {
			in[i] = nv
			changed = true
		}
	}
	if changed {
		f.work = append(f.work, int32(idx))
	}
	return nil
}

// typeValue converts a descriptor type into abstract slot values; the
// second is meaningful for the two-slot types only.
func (f *frames) typeValue(t bytecode.Type) (vt, vt) {
	switch t.Kind {
	case bytecode.KInt, bytecode.KBoolean, bytecode.KByte, bytecode.KChar, bytecode.KShort:
		return tInt, 0
	case bytecode.KFloat:
		return tFloat, 0
	case bytecode.KLong:
		return tLong, tLong2
	case bytecode.KDouble:
		return tDouble, tDbl2
	case bytecode.KObject:
		return f.ref(t.ClassName), 0
	case bytecode.KArray:
		f.key = appendDescriptor(f.key[:0], t)
		return mkvt(vtRef, f.internKey(), 0), 0
	}
	return tTop, 0
}

// push appends vs to the operand stack; the height is checked before
// anything is written, and reported as it would have been after.
func (f *frames) push(idx int, vs ...vt) error {
	if f.sp+len(vs) > f.maxStack {
		return f.fail(idx, "operand stack overflow: %d > max_stack %d", f.sp+len(vs), f.maxStack)
	}
	copy(f.cur[f.nlocals+f.sp:], vs)
	f.sp += len(vs)
	return nil
}

func (f *frames) pushType(idx int, t bytecode.Type) error {
	v, v2 := f.typeValue(t)
	if t.Slots() == 2 {
		return f.push(idx, v, v2)
	}
	return f.push(idx, v)
}

func (f *frames) pop(idx int) (vt, error) {
	if f.sp == 0 {
		return tTop, f.fail(idx, "operand stack underflow")
	}
	f.sp--
	return f.cur[f.nlocals+f.sp], nil
}

func (f *frames) opName(idx int) string { return f.insts[idx].Op.Name() }

func (f *frames) popKind(idx int, k vkind) error {
	v, err := f.pop(idx)
	if err != nil {
		return err
	}
	f.census.Phase3++
	if v.kind() != k {
		return f.fail(idx, "%s: expected %v on stack, found %v", f.opName(idx), f.str(vt(k)), f.str(v))
	}
	return nil
}

func (f *frames) popRef(idx int) (vt, error) {
	v, err := f.pop(idx)
	if err != nil {
		return v, err
	}
	f.census.Phase3++
	if !v.isOneSlotRefLike() {
		return v, f.fail(idx, "%s: expected reference, found %v", f.opName(idx), f.str(v))
	}
	return v, nil
}

func (f *frames) popType(idx int, t bytecode.Type) error {
	k := vtInt
	switch t.Kind {
	case bytecode.KLong:
		k = vtLong
	case bytecode.KDouble:
		k = vtDouble
	case bytecode.KFloat:
		k = vtFloat
	case bytecode.KObject, bytecode.KArray:
		k = vtRef
	}
	return f.popKinds(idx, k)
}

// popKinds pops one value per kind, top first: vtRef any reference,
// vtLong and vtDouble a two-slot pair, anything else exactly that kind.
func (f *frames) popKinds(idx int, kinds ...vkind) error {
	for _, k := range kinds {
		switch k {
		case vtRef:
			if _, err := f.popRef(idx); err != nil {
				return err
			}
		case vtLong, vtDouble:
			// The second half, whose kind follows the first's, is on top.
			hi, err := f.pop(idx)
			if err != nil {
				return err
			}
			lo, err := f.pop(idx)
			if err != nil {
				return err
			}
			f.census.Phase3++
			if hi.kind() != k+1 || lo.kind() != k {
				return f.fail(idx, "%s: expected %v pair, found %v/%v", f.opName(idx), f.str(vt(k)), f.str(lo), f.str(hi))
			}
		default:
			if err := f.popKind(idx, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// setLocal writes a one-slot value, or both slots of a two-slot one, at
// local i.
func (f *frames) setLocal(idx, i int, vs ...vt) error {
	f.census.Phase3++
	if i+len(vs) > f.nlocals {
		return f.fail(idx, "local %d out of range", i)
	}
	// Invalidate a wide value whose first half is being overwritten.
	if i > 0 && (f.cur[i-1].kind() == vtLong || f.cur[i-1].kind() == vtDouble) {
		f.cur[i-1] = tTop
	}
	copy(f.cur[i:], vs)
	return nil
}

func (f *frames) getLocal(idx, i int, k vkind) (vt, error) {
	f.census.Phase3++
	if i >= f.nlocals {
		return tTop, f.fail(idx, "local %d out of range", i)
	}
	v := f.cur[i]
	if k == vtRef {
		if !v.isOneSlotRefLike() && v.kind() != vtRet {
			return v, f.fail(idx, "%s: local %d holds %v, want reference", f.opName(idx), i, f.str(v))
		}
		return v, nil
	}
	if v.kind() != k {
		return v, f.fail(idx, "%s: local %d holds %v, want %v", f.opName(idx), i, f.str(v), f.str(vt(k)))
	}
	if k == vtLong || k == vtDouble {
		want := vtLong2
		if k == vtDouble {
			want = vtDouble2
		}
		if i+1 >= f.nlocals || f.cur[i+1].kind() != want {
			return v, f.fail(idx, "%s: local %d wide value corrupted", f.opName(idx), i)
		}
	}
	return v, nil
}

// rule is the transfer function of an opcode whose effect on the frame
// is fixed by the opcode alone. apply runs it in this order: pop the
// kinds (as popKinds reads them, top first); for a load, check the local
// holds the kind of the first value pushed; for a store, write the
// popped kind to the local; push the values; send the frame to the
// branch target.
type rule struct {
	pop    []vkind
	push   []vt
	local  bytecode.Opcode // a load or store: the first of its short forms
	branch bool            // the frame also goes to the instruction's target
	ends   bool            // control never falls through
}

var (
	pushI, pushF = []vt{tInt}, []vt{tFloat}
	pushJ, pushD = []vt{tLong, tLong2}, []vt{tDouble, tDbl2}
	// kindSlots holds the slots a value of each kind occupies: what a
	// load of it pushes and a store of it writes.
	kindSlots = [...][]vt{vtInt: pushI, vtFloat: pushF, vtLong: pushJ, vtDouble: pushD}
)

// rules is indexed by opcode; step handles an opcode without a rule
// itself, because its effect depends on the constant pool, the popped
// values or the method.
var rules = func() (t [256]*rule) {
	const I, J, F, D, A = vtInt, vtLong, vtFloat, vtDouble, vtRef
	set := func(r rule, ops ...bytecode.Opcode) {
		for _, op := range ops {
			t[op] = &r
		}
	}
	pop := func(ks ...vkind) []vkind { return ks }
	set(rule{push: []vt{tNull}}, bytecode.AconstNull)
	set(rule{push: pushI}, bytecode.IconstM1, bytecode.Iconst0, bytecode.Iconst1, bytecode.Iconst2,
		bytecode.Iconst3, bytecode.Iconst4, bytecode.Iconst5, bytecode.Bipush, bytecode.Sipush)
	set(rule{push: pushJ}, bytecode.Lconst0, bytecode.Lconst1)
	set(rule{push: pushF}, bytecode.Fconst0, bytecode.Fconst1, bytecode.Fconst2)
	set(rule{push: pushD}, bytecode.Dconst0, bytecode.Dconst1)

	for _, ls := range []struct {
		load, load0, store, store0 bytecode.Opcode
		k                          vkind
	}{
		{bytecode.Iload, bytecode.Iload0, bytecode.Istore, bytecode.Istore0, I},
		{bytecode.Lload, bytecode.Lload0, bytecode.Lstore, bytecode.Lstore0, J},
		{bytecode.Fload, bytecode.Fload0, bytecode.Fstore, bytecode.Fstore0, F},
		{bytecode.Dload, bytecode.Dload0, bytecode.Dstore, bytecode.Dstore0, D},
	} {
		set(rule{local: ls.load0, push: kindSlots[ls.k]}, ls.load, ls.load0, ls.load0+1, ls.load0+2, ls.load0+3)
		set(rule{local: ls.store0, pop: pop(ls.k)}, ls.store, ls.store0, ls.store0+1, ls.store0+2, ls.store0+3)
	}

	set(rule{pop: pop(I, A), push: pushI}, bytecode.Iaload, bytecode.Baload, bytecode.Caload, bytecode.Saload)
	set(rule{pop: pop(I, A), push: pushF}, bytecode.Faload)
	set(rule{pop: pop(I, A), push: pushJ}, bytecode.Laload)
	set(rule{pop: pop(I, A), push: pushD}, bytecode.Daload)
	set(rule{pop: pop(I, I, A)}, bytecode.Iastore, bytecode.Bastore, bytecode.Castore, bytecode.Sastore)
	set(rule{pop: pop(F, I, A)}, bytecode.Fastore)
	set(rule{pop: pop(J, I, A)}, bytecode.Lastore)
	set(rule{pop: pop(D, I, A)}, bytecode.Dastore)
	set(rule{pop: pop(A, I, A)}, bytecode.Aastore)

	set(rule{pop: pop(I, I), push: pushI}, bytecode.Iadd, bytecode.Isub, bytecode.Imul, bytecode.Idiv, bytecode.Irem,
		bytecode.Ishl, bytecode.Ishr, bytecode.Iushr, bytecode.Iand, bytecode.Ior, bytecode.Ixor)
	set(rule{pop: pop(I), push: pushI}, bytecode.Ineg, bytecode.I2b, bytecode.I2c, bytecode.I2s)
	set(rule{pop: pop(J, J), push: pushJ}, bytecode.Ladd, bytecode.Lsub, bytecode.Lmul, bytecode.Ldiv, bytecode.Lrem,
		bytecode.Land, bytecode.Lor, bytecode.Lxor)
	set(rule{pop: pop(J), push: pushJ}, bytecode.Lneg)
	set(rule{pop: pop(I, J), push: pushJ}, bytecode.Lshl, bytecode.Lshr, bytecode.Lushr)
	set(rule{pop: pop(F, F), push: pushF}, bytecode.Fadd, bytecode.Fsub, bytecode.Fmul, bytecode.Fdiv, bytecode.Frem)
	set(rule{pop: pop(F), push: pushF}, bytecode.Fneg)
	set(rule{pop: pop(D, D), push: pushD}, bytecode.Dadd, bytecode.Dsub, bytecode.Dmul, bytecode.Ddiv, bytecode.Drem)
	set(rule{pop: pop(D), push: pushD}, bytecode.Dneg)

	set(rule{pop: pop(I), push: pushJ}, bytecode.I2l)
	set(rule{pop: pop(I), push: pushF}, bytecode.I2f)
	set(rule{pop: pop(I), push: pushD}, bytecode.I2d)
	set(rule{pop: pop(J), push: pushI}, bytecode.L2i)
	set(rule{pop: pop(J), push: pushF}, bytecode.L2f)
	set(rule{pop: pop(J), push: pushD}, bytecode.L2d)
	set(rule{pop: pop(F), push: pushI}, bytecode.F2i)
	set(rule{pop: pop(F), push: pushJ}, bytecode.F2l)
	set(rule{pop: pop(F), push: pushD}, bytecode.F2d)
	set(rule{pop: pop(D), push: pushI}, bytecode.D2i)
	set(rule{pop: pop(D), push: pushJ}, bytecode.D2l)
	set(rule{pop: pop(D), push: pushF}, bytecode.D2f)
	set(rule{pop: pop(J, J), push: pushI}, bytecode.Lcmp)
	set(rule{pop: pop(F, F), push: pushI}, bytecode.Fcmpl, bytecode.Fcmpg)
	set(rule{pop: pop(D, D), push: pushI}, bytecode.Dcmpl, bytecode.Dcmpg)

	set(rule{pop: pop(I), branch: true}, bytecode.Ifeq, bytecode.Ifne, bytecode.Iflt, bytecode.Ifge, bytecode.Ifgt, bytecode.Ifle)
	set(rule{pop: pop(I, I), branch: true}, bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt, bytecode.IfIcmpge,
		bytecode.IfIcmpgt, bytecode.IfIcmple)
	set(rule{pop: pop(A, A), branch: true}, bytecode.IfAcmpeq, bytecode.IfAcmpne)
	set(rule{pop: pop(A), branch: true}, bytecode.Ifnull, bytecode.Ifnonnull)
	set(rule{branch: true, ends: true}, bytecode.Goto, bytecode.GotoW)

	set(rule{pop: pop(A), push: pushI}, bytecode.Arraylength, bytecode.Instanceof)
	set(rule{pop: pop(A)}, bytecode.Monitorenter, bytecode.Monitorexit)
	set(rule{pop: pop(A), ends: true}, bytecode.Athrow)
	return t
}()

// apply runs rule r for instruction idx; it reports whether control
// cannot fall through to idx+1.
func (f *frames) apply(idx int, r *rule) (flowEnds bool, err error) {
	if err := f.popKinds(idx, r.pop...); err != nil {
		return false, err
	}
	if r.local != 0 {
		i := localIndex(&f.insts[idx], r.local)
		if len(r.pop) > 0 {
			err = f.setLocal(idx, i, kindSlots[r.pop[0]]...)
		} else {
			_, err = f.getLocal(idx, i, r.push[0].kind())
		}
		if err != nil {
			return false, err
		}
	}
	// A handler's entry can sit above max_stack 0, so a rule that pushes
	// nothing must not check the height.
	if len(r.push) > 0 {
		if err := f.push(idx, r.push...); err != nil {
			return false, err
		}
	}
	if r.branch {
		if err := f.mergeInto(f.insts[idx].Target, f.stack()); err != nil {
			return false, err
		}
	}
	return r.ends, nil
}

// step applies instruction idx's transfer function to the working frame,
// sending it along the instruction's branch edges; it reports whether
// control cannot fall through to idx+1.
func (f *frames) step(idx int) (flowEnds bool, err error) {
	inst := &f.insts[idx]
	op := inst.Op
	if r := rules[op]; r != nil {
		return f.apply(idx, r)
	}
	pool := f.cf.Pool
	switch op {
	// nop has no case: this verifier has always answered it with the "no
	// rule" rejection below, and a verdict is wire format (ROADMAP item 4
	// owns changing one).
	case bytecode.Ldc, bytecode.LdcW:
		switch pool.Tag(inst.Index) {
		case classfile.TagInteger:
			return false, f.push(idx, tInt)
		case classfile.TagFloat:
			return false, f.push(idx, tFloat)
		case classfile.TagString:
			return false, f.push(idx, mkvt(vtRef, clsString, 0))
		}
		return false, f.fail(idx, "ldc of unexpected tag")
	case bytecode.Ldc2W:
		if pool.Tag(inst.Index) == classfile.TagLong {
			return false, f.push(idx, tLong, tLong2)
		}
		return false, f.push(idx, tDouble, tDbl2)

	case bytecode.Aload, bytecode.Aload0, bytecode.Aload1, bytecode.Aload2, bytecode.Aload3:
		v, err := f.getLocal(idx, localIndex(inst, bytecode.Aload0), vtRef)
		if err != nil {
			return false, err
		}
		if v.kind() == vtRet {
			return false, f.fail(idx, "aload of returnAddress")
		}
		return false, f.push(idx, v)
	case bytecode.Astore, bytecode.Astore0, bytecode.Astore1, bytecode.Astore2, bytecode.Astore3:
		v, err := f.pop(idx)
		if err != nil {
			return false, err
		}
		f.census.Phase3++
		if !v.isOneSlotRefLike() && v.kind() != vtRet {
			return false, f.fail(idx, "astore of %v", f.str(v))
		}
		return false, f.setLocal(idx, localIndex(inst, bytecode.Astore0), v)

	case bytecode.Aaload:
		if err := f.popKind(idx, vtInt); err != nil {
			return false, err
		}
		arr, err := f.popRef(idx)
		if err != nil {
			return false, err
		}
		elem := clsObject
		if cls := f.names[arr.cls()]; arr.kind() == vtRef && len(cls) > 1 && cls[0] == '[' {
			if ed := cls[1:]; ed[0] == 'L' {
				elem = f.intern(ed[1 : len(ed)-1])
			} else if ed[0] == '[' {
				elem = f.intern(ed)
			}
		}
		return false, f.push(idx, mkvt(vtRef, elem, 0))

	case bytecode.Pop:
		v, err := f.pop(idx)
		if err != nil {
			return false, err
		}
		if v.category() != 1 {
			return false, f.fail(idx, "pop of category-2 half %v", f.str(v))
		}
		return false, nil
	case bytecode.Pop2:
		v, err := f.pop(idx)
		if err != nil {
			return false, err
		}
		if v.category() == 1 {
			v2, err := f.pop(idx)
			if err != nil {
				return false, err
			}
			if v2.category() != 1 {
				return false, f.fail(idx, "pop2 splits wide value")
			}
			return false, nil
		}
		// v is a wide second-half; pop the first half too.
		_, err = f.pop(idx)
		return false, err
	case bytecode.Dup:
		v, err := f.pop(idx)
		if err != nil {
			return false, err
		}
		if v.category() != 1 {
			return false, f.fail(idx, "dup of category-2 value")
		}
		return false, f.push(idx, v, v)
	case bytecode.DupX1:
		v1, v2, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		if v1.category() != 1 || v2.category() != 1 {
			return false, f.fail(idx, "dup_x1 on category-2 values")
		}
		return false, f.push(idx, v1, v2, v1)
	case bytecode.DupX2:
		v1, v2, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		v3, err := f.pop(idx)
		if err != nil {
			return false, err
		}
		if v1.category() != 1 {
			return false, f.fail(idx, "dup_x2 of category-2 top")
		}
		return false, f.push(idx, v1, v3, v2, v1)
	case bytecode.Dup2:
		v1, v2, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		return false, f.push(idx, v2, v1, v2, v1)
	case bytecode.Dup2X1:
		v1, v2, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		v3, err := f.pop(idx)
		if err != nil {
			return false, err
		}
		return false, f.push(idx, v2, v1, v3, v2, v1)
	case bytecode.Dup2X2:
		v1, v2, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		v3, v4, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		return false, f.push(idx, v2, v1, v4, v3, v2, v1)
	case bytecode.Swap:
		v1, v2, err := f.pop2(idx)
		if err != nil {
			return false, err
		}
		if v1.category() != 1 || v2.category() != 1 {
			return false, f.fail(idx, "swap on category-2 values")
		}
		return false, f.push(idx, v1, v2)

	case bytecode.Iinc:
		_, err := f.getLocal(idx, int(inst.Index), vtInt)
		return false, err

	case bytecode.Jsr, bytecode.JsrW:
		// Simplified subroutine treatment (documented in DESIGN.md):
		// the subroutine is assumed to return with the caller's
		// frame intact; full Stata-Abadi subroutine typing is out of
		// scope for this reproduction.
		f.cur[f.nlocals+f.sp] = tRet
		f.sp++
		err := f.mergeInto(inst.Target, f.stack())
		f.sp--
		return false, err
	case bytecode.Ret:
		if _, err := f.getLocal(idx, int(inst.Index), vtRef); err != nil {
			return false, err
		}
		if f.cur[inst.Index].kind() != vtRet {
			return false, f.fail(idx, "ret on non-returnAddress local")
		}
		return true, nil
	case bytecode.Tableswitch, bytecode.Lookupswitch:
		if err := f.popKind(idx, vtInt); err != nil {
			return false, err
		}
		if err := f.mergeInto(inst.Switch.Default, f.stack()); err != nil {
			return true, err
		}
		for _, t := range inst.Switch.Targets {
			if err := f.mergeInto(t, f.stack()); err != nil {
				return true, err
			}
		}
		return true, nil

	// Returns.
	case bytecode.Ireturn:
		f.census.Phase3++
		if !isIntKind(f.ret.Kind) {
			return true, f.fail(idx, "ireturn from method returning %s", f.ret.String())
		}
		return true, f.popKind(idx, vtInt)
	case bytecode.Freturn:
		if f.ret.Kind != bytecode.KFloat {
			return true, f.fail(idx, "freturn from method returning %s", f.ret.String())
		}
		return true, f.popKind(idx, vtFloat)
	case bytecode.Lreturn:
		if f.ret.Kind != bytecode.KLong {
			return true, f.fail(idx, "lreturn from method returning %s", f.ret.String())
		}
		return true, f.popKinds(idx, vtLong)
	case bytecode.Dreturn:
		if f.ret.Kind != bytecode.KDouble {
			return true, f.fail(idx, "dreturn from method returning %s", f.ret.String())
		}
		return true, f.popKinds(idx, vtDouble)
	case bytecode.Areturn:
		if f.ret.Kind != bytecode.KObject && f.ret.Kind != bytecode.KArray {
			return true, f.fail(idx, "areturn from method returning %s", f.ret.String())
		}
		_, err := f.popRef(idx)
		return true, err
	case bytecode.Return:
		f.census.Phase3++
		if f.ret.Kind != bytecode.KVoid {
			return true, f.fail(idx, "return from method returning %s", f.ret.String())
		}
		// this must be initialized by now
		if f.inInit && f.nlocals > 0 && f.cur[0].kind() == vtUninitThis {
			return true, f.fail(idx, "constructor returns before calling super constructor")
		}
		return true, nil

	// Field access.
	case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
		ft, err := bytecode.RefType(pool, inst.Index)
		if err != nil {
			return false, f.fail(idx, "%v", err)
		}
		switch op {
		case bytecode.Putstatic:
			return false, f.popType(idx, ft)
		case bytecode.Putfield:
			if err := f.popType(idx, ft); err != nil {
				return false, err
			}
			_, err := f.popRef(idx)
			return false, err
		case bytecode.Getfield:
			if _, err := f.popRef(idx); err != nil {
				return false, err
			}
		}
		return false, f.pushType(idx, ft)

	// Invocations.
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface:
		return false, f.invoke(idx)

	// Allocation and type tests.
	case bytecode.New:
		cn, err := pool.ClassName(inst.Index)
		if err != nil {
			return false, f.fail(idx, "%v", err)
		}
		return false, f.push(idx, mkvt(vtUninit, f.intern(cn), idx))
	case bytecode.Newarray:
		if err := f.popKind(idx, vtInt); err != nil {
			return false, err
		}
		return false, f.push(idx, f.ref(primArrayDesc(inst.ArrayType)))
	case bytecode.Anewarray:
		if err := f.popKind(idx, vtInt); err != nil {
			return false, err
		}
		cn, err := pool.ClassName(inst.Index)
		if err != nil {
			return false, f.fail(idx, "%v", err)
		}
		f.key = append(f.key[:0], '[')
		if cn[0] == '[' {
			f.key = append(f.key, cn...)
		} else {
			f.key = append(append(append(f.key, 'L'), cn...), ';')
		}
		return false, f.push(idx, mkvt(vtRef, f.internKey(), 0))
	case bytecode.Multianewarray:
		for i := 0; i < int(inst.Dims); i++ {
			if err := f.popKind(idx, vtInt); err != nil {
				return false, err
			}
		}
		cn, _ := pool.ClassName(inst.Index)
		return false, f.push(idx, f.ref(cn))
	case bytecode.Checkcast:
		if _, err := f.popRef(idx); err != nil {
			return false, err
		}
		cn, err := pool.ClassName(inst.Index)
		if err != nil {
			return false, f.fail(idx, "%v", err)
		}
		return false, f.push(idx, f.ref(cn))
	}
	return false, f.fail(idx, "phase 3 has no rule for %s", op.Name())
}

// pop2 pops the top value, then the one beneath it.
func (f *frames) pop2(idx int) (top, next vt, err error) {
	if top, err = f.pop(idx); err != nil {
		return
	}
	next, err = f.pop(idx)
	return
}

// invoke pops the arguments and the receiver of a call and pushes its
// result; a constructor call initializes every alias of its receiver.
func (f *frames) invoke(idx int) error {
	inst := &f.insts[idx]
	ref, err := f.cf.Pool.Ref(inst.Index)
	if err != nil {
		return f.fail(idx, "%v", err)
	}
	imt, err := bytecode.RefMethodType(f.cf.Pool, inst.Index)
	if err != nil {
		return f.fail(idx, "%v", err)
	}
	for i := len(imt.Params) - 1; i >= 0; i-- {
		if err := f.popType(idx, imt.Params[i]); err != nil {
			return err
		}
	}
	if inst.Op != bytecode.Invokestatic {
		recv, err := f.pop(idx)
		if err != nil {
			return err
		}
		f.census.Phase3++
		frame := f.cur[:f.nlocals+f.sp]
		switch recv.kind() {
		case vtRef, vtNull:
			if ref.Name == "<init>" {
				return f.fail(idx, "<init> invoked on initialized reference")
			}
		case vtUninit:
			if ref.Name != "<init>" {
				return f.fail(idx, "use of uninitialized object")
			}
			// Initialize every alias of this allocation site.
			initialized := mkvt(vtRef, recv.cls(), 0)
			for i, v := range frame {
				if v == recv {
					frame[i] = initialized
				}
			}
		case vtUninitThis:
			if ref.Name != "<init>" {
				return f.fail(idx, "use of uninitialized this")
			}
			initialized := mkvt(vtRef, f.thisClass, 0)
			for i, v := range frame {
				if v.kind() == vtUninitThis {
					frame[i] = initialized
				}
			}
		default:
			return f.fail(idx, "invoke on non-reference %v", f.str(recv))
		}
	}
	if imt.Ret.Kind != bytecode.KVoid {
		return f.pushType(idx, imt.Ret)
	}
	return nil
}

func localIndex(in *bytecode.Inst, base bytecode.Opcode) int {
	if in.Op >= base && in.Op <= base+3 {
		return int(in.Op - base)
	}
	return int(in.Index)
}

func isIntKind(k bytecode.BaseKind) bool {
	switch k {
	case bytecode.KInt, bytecode.KBoolean, bytecode.KByte, bytecode.KChar, bytecode.KShort:
		return true
	}
	return false
}

// primArrayDesc is the descriptor of the array newarray atype makes.
func primArrayDesc(atype uint8) string {
	switch atype {
	case bytecode.TBoolean:
		return "[Z"
	case bytecode.TChar:
		return "[C"
	case bytecode.TFloat:
		return "[F"
	case bytecode.TDouble:
		return "[D"
	case bytecode.TByte:
		return "[B"
	case bytecode.TShort:
		return "[S"
	case bytecode.TLong:
		return "[J"
	}
	return "[I"
}
