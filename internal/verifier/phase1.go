package verifier

import (
	"fmt"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// phase1 checks the internal consistency of the class file: every
// constant pool cross-reference resolves to an entry of the right tag,
// names and descriptors are syntactically valid, access flag
// combinations are legal, and members are well-formed.
func phase1(cf *classfile.ClassFile, census *Census, found *findings) error {
	name := cf.Name()
	fail := func(format string, args ...any) error {
		return &Error{Phase: 1, Class: name, Msg: fmt.Sprintf(format, args...)}
	}
	pool := cf.Pool

	// Pool-wide cross-reference validation. The switch is driven by Tag
	// (which never decodes) and entries are only resolved for tags whose
	// checks need the referenced strings: names and descriptors get
	// materialized because they are validated, but the payloads of string
	// literals stay undecoded byte ranges in the lazy codec.
	for i := 1; i < pool.Size(); i++ {
		idx := uint16(i)
		tag := pool.Tag(idx)
		if tag == 0 {
			continue // second slot of long/double
		}
		census.Phase1++
		switch tag {
		case classfile.TagClass:
			e, _ := pool.Entry(idx)
			n, err := pool.Utf8(e.Ref1)
			if err != nil {
				return fail("Class constant %d: %v", i, err)
			}
			if !validClassName(n) {
				return fail("Class constant %d: malformed name %q", i, n)
			}
		case classfile.TagString:
			// A tag check suffices: the Utf8 payload itself was validated
			// at the parse gate, so decoding the literal here would only
			// defeat the lazy codec.
			e, _ := pool.Entry(idx)
			if pool.Tag(e.Ref1) != classfile.TagUtf8 {
				return fail("String constant %d: string index %d is not a Utf8", i, e.Ref1)
			}
		case classfile.TagNameAndType:
			e, _ := pool.Entry(idx)
			n, err := pool.Utf8(e.Ref1)
			if err != nil {
				return fail("NameAndType %d: %v", i, err)
			}
			d, err := pool.Utf8(e.Ref2)
			if err != nil {
				return fail("NameAndType %d: %v", i, err)
			}
			if !validMemberName(n) && n != "<init>" && n != "<clinit>" {
				return fail("NameAndType %d: malformed name %q", i, n)
			}
			if err := validDescriptor(pool, n, d, e.Ref2); err != nil {
				return fail("NameAndType %d: %v", i, err)
			}
		case classfile.TagFieldref, classfile.TagMethodref, classfile.TagInterfaceMethodref:
			e, _ := pool.Entry(idx)
			if pool.Tag(e.Ref1) != classfile.TagClass {
				return fail("member ref %d: class index %d is not a Class", i, e.Ref1)
			}
			if pool.Tag(e.Ref2) != classfile.TagNameAndType {
				return fail("member ref %d: nat index %d is not a NameAndType", i, e.Ref2)
			}
			// Cross-validate member kind against descriptor shape (one of
			// the underspecified redundancies the paper notes verifiers
			// disagree on; we enforce it).
			n, d, err := pool.NameAndType(e.Ref2)
			if err != nil {
				return fail("member ref %d: %v", i, err)
			}
			isMethodDesc := strings.HasPrefix(d, "(")
			if e.Tag == classfile.TagFieldref && isMethodDesc {
				return fail("Fieldref %d has method descriptor %s", i, d)
			}
			if e.Tag != classfile.TagFieldref && !isMethodDesc {
				return fail("Methodref %d has field descriptor %s", i, d)
			}
			_ = n
		}
	}

	// this/super/interfaces.
	census.Phase1++
	if _, err := pool.ClassName(cf.ThisClass); err != nil {
		return fail("this_class: %v", err)
	}
	census.Phase1++
	if cf.SuperClass != 0 {
		if _, err := pool.ClassName(cf.SuperClass); err != nil {
			return fail("super_class: %v", err)
		}
	} else if name != "java/lang/Object" {
		return fail("missing superclass")
	}
	if cf.IsInterface() {
		census.Phase1++
		if cf.SuperName() != "java/lang/Object" {
			return fail("interface must extend java/lang/Object")
		}
		if cf.AccessFlags&classfile.AccFinal != 0 {
			return fail("interface cannot be final")
		}
	}
	if cf.AccessFlags&classfile.AccFinal != 0 && cf.AccessFlags&classfile.AccAbstract != 0 {
		return fail("class cannot be both final and abstract")
	}
	for _, i := range cf.Interfaces {
		census.Phase1++
		if _, err := pool.ClassName(i); err != nil {
			return fail("interfaces: %v", err)
		}
	}

	// Members.
	for _, f := range cf.Fields {
		census.Phase1++
		fn := cf.MemberName(f)
		fd := cf.MemberDescriptor(f)
		if !validMemberName(fn) || fn == "<init>" || fn == "<clinit>" {
			return fail("field with malformed name %q", fn)
		}
		if _, err := bytecode.TypeAt(pool, f.DescriptorIndex); err != nil {
			return fail("field %s: bad descriptor %q", fn, fd)
		}
		if !found.firstMember(fn, fd) {
			return fail("duplicate field %s %s", fn, fd)
		}
		if f.AccessFlags&classfile.AccFinal != 0 && f.AccessFlags&classfile.AccVolatile != 0 {
			return fail("field %s both final and volatile", fn)
		}
		if a := cf.FindAttr(f.Attributes, classfile.AttrConstantValue); a != nil {
			idx, err := classfile.ConstantValueIndex(a)
			if err != nil {
				return fail("field %s: %v", fn, err)
			}
			census.Phase1++
			if err := constantMatchesDescriptor(pool, idx, fd); err != nil {
				return fail("field %s: %v", fn, err)
			}
		}
	}
	clear(found.members) // methods are checked for duplicates among themselves
	for _, m := range cf.Methods {
		census.Phase1++
		mn := cf.MemberName(m)
		md := cf.MemberDescriptor(m)
		if !validMemberName(mn) && mn != "<init>" && mn != "<clinit>" {
			return fail("method with malformed name %q", mn)
		}
		mt, err := bytecode.MethodTypeAt(pool, m.DescriptorIndex)
		if err != nil {
			return fail("method %s: bad descriptor %q", mn, md)
		}
		if mn == "<init>" && mt.Ret.Kind != bytecode.KVoid {
			return fail("constructor %s must return void", md)
		}
		if !found.firstMember(mn, md) {
			return fail("duplicate method %s %s", mn, md)
		}
		abstract := m.AccessFlags&(classfile.AccAbstract|classfile.AccNative) != 0
		code := cf.FindAttr(m.Attributes, classfile.AttrCode)
		census.Phase1++
		if abstract && code != nil {
			return fail("abstract/native method %s has a Code attribute", mn)
		}
		if !abstract && code == nil {
			return fail("method %s lacks a Code attribute", mn)
		}
		if m.AccessFlags&classfile.AccAbstract != 0 &&
			m.AccessFlags&(classfile.AccFinal|classfile.AccStatic|classfile.AccPrivate) != 0 {
			return fail("abstract method %s has conflicting flags", mn)
		}
	}
	return nil
}

func validClassName(n string) bool {
	if n == "" {
		return false
	}
	if n[0] == '[' {
		_, err := bytecode.ParseType(n)
		return err == nil
	}
	for {
		seg, rest, more := strings.Cut(n, "/")
		if seg == "" || strings.ContainsAny(seg, ".;[") {
			return false
		}
		if !more {
			return true
		}
		n = rest
	}
}

func validMemberName(n string) bool {
	return n != "" && !strings.ContainsAny(n, ".;[/<>")
}

// validDescriptor checks the descriptor d of a NameAndType, held by the
// Utf8 constant at idx.
func validDescriptor(pool *classfile.ConstPool, name, d string, idx uint16) error {
	if strings.HasPrefix(d, "(") {
		mt, err := bytecode.MethodTypeAt(pool, idx)
		if err != nil {
			return err
		}
		if name == "<init>" && mt.Ret.Kind != bytecode.KVoid {
			return &Error{Phase: 1, Msg: "constructor descriptor must return void"}
		}
		return nil
	}
	_, err := bytecode.TypeAt(pool, idx)
	return err
}

func constantMatchesDescriptor(pool *classfile.ConstPool, idx uint16, desc string) error {
	e, err := pool.Entry(idx)
	if err != nil {
		return err
	}
	ok := false
	switch desc {
	case "I", "S", "B", "C", "Z":
		ok = e.Tag == classfile.TagInteger
	case "J":
		ok = e.Tag == classfile.TagLong
	case "F":
		ok = e.Tag == classfile.TagFloat
	case "D":
		ok = e.Tag == classfile.TagDouble
	case "Ljava/lang/String;":
		ok = e.Tag == classfile.TagString
	}
	if !ok {
		return fmt.Errorf("ConstantValue tag %s does not match descriptor %s", e.Tag, desc)
	}
	return nil
}
