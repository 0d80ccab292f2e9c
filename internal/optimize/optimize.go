// Package optimize implements the DVM's repartitioning optimization
// service for mobile code on low-bandwidth links (paper §5).
//
// Java's units of code transfer (classes, archives) are coarse: "roughly
// 10-30% of all downloaded code is never invoked." This service uses a
// first-use profile collected by the monitoring service to restructure
// applications at *method* granularity: frequently used methods stay in
// the original "carrier" class, while cold methods are factored out into
// a companion class (<Name>$cold) that is loaded only if one of them is
// actually called. The carrier keeps forwarding stubs under the original
// signatures, so neither clients nor origin servers need modification.
package optimize

import (
	"fmt"
	"sort"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// ColdSuffix names the companion class holding factored-out methods.
const ColdSuffix = "$cold"

// Profile is the set of methods observed in use (from the monitoring
// service's first-use instrumentation). Keys are "class.method". Order
// preserves the first-invocation sequence (§5's first-use order).
type Profile struct {
	Hot   map[string]bool
	Order []string // deduplicated "class.method" in arrival order
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{Hot: make(map[string]bool)} }

// FromFirstUse builds a profile from monitor first-use order entries of
// the form "class.method desc" or "class.method". Entries are trimmed,
// malformed (empty after trimming) entries are skipped, and duplicates
// keep their first position, so Order is the true arrival order.
func FromFirstUse(order []string) *Profile {
	p := NewProfile()
	for _, e := range order {
		e = strings.TrimSpace(e)
		if i := strings.IndexByte(e, ' '); i >= 0 {
			e = e[:i]
		}
		if e == "" || p.Hot[e] {
			continue
		}
		p.Hot[e] = true
		p.Order = append(p.Order, e)
	}
	return p
}

// ClassOrder projects a profile's method-level first-use order onto
// classes: the sequence of class transitions with consecutive duplicates
// collapsed: the order in which a first-use bundle would ship classes.
func (p *Profile) ClassOrder() []string {
	var out []string
	for _, e := range p.Order {
		class := e
		if i := strings.LastIndexByte(e, '.'); i > 0 {
			class = e[:i]
		}
		if class == "" {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == class {
			continue
		}
		out = append(out, class)
	}
	return out
}

// HotMethod reports whether class.method was used in the profile.
func (p *Profile) HotMethod(class, method string) bool {
	return p.Hot[class+"."+method]
}

// Report summarizes a repartitioning run.
type Report struct {
	Classes      int
	Split        int // classes that produced a cold companion
	HotMethods   int
	ColdMethods  int
	BytesBefore  int
	CarrierBytes int // bytes of the rewritten originals
	ColdBytes    int // bytes of the companions
}

// Repartition splits every class in the application according to the
// profile. The returned map contains the rewritten carriers under their
// original names plus the generated <Name>$cold companions. Classes with
// no cold methods pass through unchanged.
func Repartition(classes map[string][]byte, prof *Profile) (map[string][]byte, *Report, error) {
	out := make(map[string][]byte, len(classes))
	rep := &Report{}
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		data := classes[name]
		rep.Classes++
		rep.BytesBefore += len(data)
		carrier, cold, hot, coldN, err := splitClass(name, data, prof)
		if err != nil {
			return nil, nil, fmt.Errorf("optimize: %s: %w", name, err)
		}
		rep.HotMethods += hot
		rep.ColdMethods += coldN
		out[name] = carrier
		rep.CarrierBytes += len(carrier)
		if cold != nil {
			rep.Split++
			out[name+ColdSuffix] = cold
			rep.ColdBytes += len(cold)
		}
	}
	return out, rep, nil
}

// mustKeep marks methods that never move: initializers, entry points,
// and anything the profile observed.
func mustKeep(name string, prof *Profile, class string) bool {
	if strings.HasPrefix(name, "<") || name == "main" {
		return true
	}
	return prof != nil && prof.HotMethod(class, name)
}

func splitClass(name string, data []byte, prof *Profile) (carrier, cold []byte, hot, coldN int, err error) {
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var hotMethods, coldMethods []*classfile.Member
	for _, m := range cf.Methods {
		mn := cf.MemberName(m)
		hasCode := cf.FindAttr(m.Attributes, classfile.AttrCode) != nil
		if !hasCode || mustKeep(mn, prof, name) {
			hotMethods = append(hotMethods, m)
		} else {
			coldMethods = append(coldMethods, m)
		}
	}
	hot = len(hotMethods)
	coldN = len(coldMethods)
	if coldN == 0 {
		return data, nil, hot, 0, nil
	}

	coldName := name + ColdSuffix
	coldCF := &classfile.ClassFile{
		MinorVersion: cf.MinorVersion,
		MajorVersion: cf.MajorVersion,
		Pool:         classfile.NewConstPool(),
		AccessFlags:  classfile.AccPublic | classfile.AccSuper,
	}
	coldCF.ThisClass = coldCF.Pool.AddClass(coldName)
	coldCF.SuperClass = coldCF.Pool.AddClass("java/lang/Object")

	// Move each cold method to the companion, remapping constants; leave
	// a forwarding stub in the carrier.
	kept := hotMethods
	for _, m := range coldMethods {
		if err := moveMethod(cf, coldCF, name, m); err != nil {
			return nil, nil, 0, 0, err
		}
		stub, err := makeStub(cf, name, coldName, m)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		kept = append(kept, stub)
	}
	cf.Methods = kept

	// Drop the moved methods' now-unreferenced constants so the carrier's
	// transfer size reflects only the code it still holds.
	if err := rewrite.CompactPool(cf); err != nil {
		return nil, nil, 0, 0, err
	}
	carrier, err = cf.Encode()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	cold, err = coldCF.Encode()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return carrier, cold, hot, coldN, nil
}

// moveMethod transplants m from src into dst (class coldName's file),
// converting instance methods to statics with an explicit receiver
// parameter. Local variable numbering is unchanged by this conversion,
// so the body moves verbatim apart from constant pool remapping.
func moveMethod(src, dst *classfile.ClassFile, origName string, m *classfile.Member) error {
	name := src.MemberName(m)
	desc := src.MemberDescriptor(m)
	flags := m.AccessFlags
	newDesc := desc
	if flags&classfile.AccStatic == 0 {
		newDesc = "(L" + origName + ";" + desc[1:]
	}
	newFlags := classfile.AccPublic | classfile.AccStatic |
		(flags & classfile.AccSynchronized)

	code, err := src.CodeOf(m)
	if err != nil {
		return err
	}
	insts, err := bytecode.Decode(code.Bytecode)
	if err != nil {
		return err
	}
	for i := range insts {
		if err := remapOperand(&insts[i], src.Pool, dst.Pool); err != nil {
			return err
		}
	}
	newBytecode, pcs, err := bytecode.Encode(insts)
	if err != nil {
		return err
	}
	_ = pcs
	newCode := &classfile.Code{
		MaxStack:  code.MaxStack,
		MaxLocals: code.MaxLocals,
		Bytecode:  newBytecode,
	}
	for _, h := range code.Handlers {
		nh := h
		if h.CatchType != 0 {
			cn, err := src.Pool.ClassName(h.CatchType)
			if err != nil {
				return err
			}
			nh.CatchType = dst.Pool.AddClass(cn)
		}
		newCode.Handlers = append(newCode.Handlers, nh)
	}
	nm := &classfile.Member{
		AccessFlags:     newFlags,
		NameIndex:       dst.Pool.AddUtf8(name),
		DescriptorIndex: dst.Pool.AddUtf8(newDesc),
	}
	if err := dst.SetCode(nm, newCode); err != nil {
		return err
	}
	dst.Methods = append(dst.Methods, nm)
	return nil
}

// remapOperand re-interns an instruction's constant pool operand from
// src into dst.
func remapOperand(in *bytecode.Inst, src, dst *classfile.ConstPool) error {
	switch in.Op.OperandKind() {
	case bytecode.KindCPU1, bytecode.KindCPU2, bytecode.KindIfaceRef, bytecode.KindMultiNew:
	default:
		return nil
	}
	idx, err := CopyConstant(src, dst, in.Index)
	if err != nil {
		return err
	}
	in.Index = idx
	return nil
}

// CopyConstant re-interns the constant at idx of src into dst, returning
// the new index. It delegates to the rewriting engine's implementation.
func CopyConstant(src, dst *classfile.ConstPool, idx uint16) (uint16, error) {
	return rewrite.CopyConstant(src, dst, idx)
}

// makeStub builds the carrier-side forwarding method: original
// signature, body = load arguments, invokestatic companion, return.
func makeStub(cf *classfile.ClassFile, origName, coldName string, m *classfile.Member) (*classfile.Member, error) {
	name := cf.MemberName(m)
	desc := cf.MemberDescriptor(m)
	flags := m.AccessFlags
	mt, err := bytecode.ParseMethodType(desc)
	if err != nil {
		return nil, err
	}
	targetDesc := desc
	isStatic := flags&classfile.AccStatic != 0
	if !isStatic {
		targetDesc = "(L" + origName + ";" + desc[1:]
	}

	var insts []bytecode.Inst
	slot := uint16(0)
	loadLocal := func(op bytecode.Opcode, idx uint16) {
		insts = append(insts, bytecode.Inst{Op: op, Index: idx, Target: -1})
	}
	if !isStatic {
		loadLocal(bytecode.Aload, slot)
		slot++
	}
	stackSlots := 0
	if !isStatic {
		stackSlots = 1
	}
	for _, p := range mt.Params {
		switch p.Kind {
		case bytecode.KLong:
			loadLocal(bytecode.Lload, slot)
			slot += 2
			stackSlots += 2
		case bytecode.KDouble:
			loadLocal(bytecode.Dload, slot)
			slot += 2
			stackSlots += 2
		case bytecode.KFloat:
			loadLocal(bytecode.Fload, slot)
			slot++
			stackSlots++
		case bytecode.KObject, bytecode.KArray:
			loadLocal(bytecode.Aload, slot)
			slot++
			stackSlots++
		default:
			loadLocal(bytecode.Iload, slot)
			slot++
			stackSlots++
		}
	}
	insts = append(insts, bytecode.Inst{
		Op:     bytecode.Invokestatic,
		Index:  cf.Pool.AddMethodref(coldName, name, targetDesc),
		Target: -1,
	})
	var retOp bytecode.Opcode
	switch mt.Ret.Kind {
	case bytecode.KVoid:
		retOp = bytecode.Return
	case bytecode.KLong:
		retOp = bytecode.Lreturn
	case bytecode.KDouble:
		retOp = bytecode.Dreturn
	case bytecode.KFloat:
		retOp = bytecode.Freturn
	case bytecode.KObject, bytecode.KArray:
		retOp = bytecode.Areturn
	default:
		retOp = bytecode.Ireturn
	}
	insts = append(insts, bytecode.Inst{Op: retOp, Target: -1})

	codeBytes, _, err := bytecode.Encode(insts)
	if err != nil {
		return nil, err
	}
	maxStack := stackSlots
	if r := mt.Ret.Slots(); r > maxStack {
		maxStack = r
	}
	stub := &classfile.Member{
		AccessFlags:     flags,
		NameIndex:       m.NameIndex,
		DescriptorIndex: m.DescriptorIndex,
	}
	code := &classfile.Code{
		MaxStack:  uint16(maxStack),
		MaxLocals: uint16(slot),
		Bytecode:  codeBytes,
	}
	if err := cf.SetCode(stub, code); err != nil {
		return nil, err
	}
	return stub, nil
}
