package rewrite

import (
	"encoding/binary"
	"fmt"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// CopyConstant re-interns the constant at idx of src into dst, returning
// the new index. Used when methods move between classes (the
// repartitioning optimizer) and by constant pool compaction.
func CopyConstant(src, dst *classfile.ConstPool, idx uint16) (uint16, error) {
	e, err := src.Entry(idx)
	if err != nil {
		return 0, err
	}
	switch e.Tag {
	case classfile.TagUtf8:
		return dst.AddUtf8(e.Str), nil
	case classfile.TagInteger:
		return dst.AddInteger(e.Int), nil
	case classfile.TagFloat:
		return dst.AddFloat(e.Float), nil
	case classfile.TagLong:
		return dst.AddLong(e.Long), nil
	case classfile.TagDouble:
		return dst.AddDouble(e.Double), nil
	case classfile.TagClass:
		n, err := src.ClassName(idx)
		if err != nil {
			return 0, err
		}
		return dst.AddClass(n), nil
	case classfile.TagString:
		s, err := src.StringValue(idx)
		if err != nil {
			return 0, err
		}
		return dst.AddString(s), nil
	case classfile.TagNameAndType:
		n, d, err := src.NameAndType(idx)
		if err != nil {
			return 0, err
		}
		return dst.AddNameAndType(n, d), nil
	case classfile.TagFieldref, classfile.TagMethodref, classfile.TagInterfaceMethodref:
		r, err := src.Ref(idx)
		if err != nil {
			return 0, err
		}
		switch e.Tag {
		case classfile.TagFieldref:
			return dst.AddFieldref(r.Class, r.Name, r.Desc), nil
		case classfile.TagMethodref:
			return dst.AddMethodref(r.Class, r.Name, r.Desc), nil
		default:
			return dst.AddInterfaceMethodref(r.Class, r.Name, r.Desc), nil
		}
	}
	return 0, fmt.Errorf("rewrite: cannot copy constant with tag %s", e.Tag)
}

// CompactPool rebuilds the class's constant pool, retaining only entries
// actually referenced. Transformations that delete or move code (the
// repartitioning optimizer in particular) call this so the transfer-unit
// sizes reflect the code they actually carry.
//
// Known attributes (Code, ConstantValue, Exceptions, SourceFile,
// LineNumberTable) have their embedded pool indices rewritten; unknown
// attributes are preserved verbatim and must not embed pool indices
// (true of all dvm.* attributes).
func CompactPool(cf *classfile.ClassFile) error {
	old := cf.Pool
	np := classfile.NewConstPool()
	cp := func(idx uint16) (uint16, error) { return CopyConstant(old, np, idx) }

	var err error
	if cf.ThisClass, err = cp(cf.ThisClass); err != nil {
		return err
	}
	if cf.SuperClass != 0 {
		if cf.SuperClass, err = cp(cf.SuperClass); err != nil {
			return err
		}
	}
	for i, ifc := range cf.Interfaces {
		if cf.Interfaces[i], err = cp(ifc); err != nil {
			return err
		}
	}
	for _, list := range [][]*classfile.Member{cf.Fields, cf.Methods} {
		for _, m := range list {
			if m.NameIndex, err = cp(m.NameIndex); err != nil {
				return err
			}
			if m.DescriptorIndex, err = cp(m.DescriptorIndex); err != nil {
				return err
			}
			if err := compactAttrs(old, np, m.Attributes); err != nil {
				return err
			}
		}
	}
	if err := compactAttrs(old, np, cf.Attributes); err != nil {
		return err
	}
	cf.Pool = np
	return nil
}

func compactAttrs(old, np *classfile.ConstPool, attrs []*classfile.Attribute) error {
	for _, a := range attrs {
		name, err := old.Utf8(a.NameIndex)
		if err != nil {
			return err
		}
		a.NameIndex = np.AddUtf8(name)
		switch name {
		case classfile.AttrCode:
			if err := compactCode(old, np, a); err != nil {
				return err
			}
		case classfile.AttrConstantValue:
			if len(a.Info) != 2 {
				return fmt.Errorf("rewrite: malformed ConstantValue")
			}
			ni, err := CopyConstant(old, np, binary.BigEndian.Uint16(a.Info))
			if err != nil {
				return err
			}
			a.Info = []byte{byte(ni >> 8), byte(ni)}
		case classfile.AttrExceptions:
			out := append([]byte(nil), a.Info...)
			if len(out) < 2 {
				return fmt.Errorf("rewrite: malformed Exceptions attribute")
			}
			n := int(binary.BigEndian.Uint16(out))
			if len(out) != 2+2*n {
				return fmt.Errorf("rewrite: malformed Exceptions attribute")
			}
			for i := 0; i < n; i++ {
				off := 2 + 2*i
				ni, err := CopyConstant(old, np, binary.BigEndian.Uint16(out[off:]))
				if err != nil {
					return err
				}
				binary.BigEndian.PutUint16(out[off:], ni)
			}
			a.Info = out
		case classfile.AttrSourceFile:
			if len(a.Info) != 2 {
				return fmt.Errorf("rewrite: malformed SourceFile")
			}
			ni, err := CopyConstant(old, np, binary.BigEndian.Uint16(a.Info))
			if err != nil {
				return err
			}
			a.Info = []byte{byte(ni >> 8), byte(ni)}
		}
	}
	return nil
}

func compactCode(old, np *classfile.ConstPool, a *classfile.Attribute) error {
	code, err := classfile.DecodeCode(a)
	if err != nil {
		return err
	}
	insts, oldPCIdx, err := bytecode.DecodeWithIndex(nil, code.Bytecode, true)
	if err != nil {
		return err
	}
	for i := range insts {
		in := &insts[i]
		switch in.Op.OperandKind() {
		case bytecode.KindCPU1, bytecode.KindCPU2, bytecode.KindIfaceRef, bytecode.KindMultiNew:
			ni, err := CopyConstant(old, np, in.Index)
			if err != nil {
				return err
			}
			in.Index = ni
		}
	}
	newBytes, err := bytecode.Assemble(nil, insts)
	if err != nil {
		return err
	}
	mapPC := func(pc uint16, isEnd bool) (uint16, error) {
		if isEnd && int(pc) == len(code.Bytecode) {
			return uint16(len(newBytes)), nil
		}
		i, ok := oldPCIdx.At(int(pc))
		if !ok {
			return 0, fmt.Errorf("rewrite: handler pc %d off instruction boundary", pc)
		}
		return uint16(insts[i].PC), nil
	}
	for i := range code.Handlers {
		h := &code.Handlers[i]
		if h.StartPC, err = mapPC(h.StartPC, false); err != nil {
			return err
		}
		if h.EndPC, err = mapPC(h.EndPC, true); err != nil {
			return err
		}
		if h.HandlerPC, err = mapPC(h.HandlerPC, false); err != nil {
			return err
		}
		if h.CatchType != 0 {
			if h.CatchType, err = CopyConstant(old, np, h.CatchType); err != nil {
				return err
			}
		}
	}
	code.Bytecode = newBytes
	if err := compactAttrs(old, np, code.Attributes); err != nil {
		return err
	}
	payload, err := code.Encode()
	if err != nil {
		return err
	}
	a.Info = payload
	return nil
}
