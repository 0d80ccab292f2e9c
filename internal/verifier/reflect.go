package verifier

import (
	"encoding/binary"

	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// The reflection service of §4.3: "we subsequently developed a
// reflection service that adds self-describing attributes to classes and
// modified our verifier to use this interface rather than the slow
// library interface." The dvm.Reflect attribute is a compact export
// table — the exact data a link check needs (names and descriptors) —
// so dynamic components answer checks with a lookup instead of a
// reflective scan.

// MemberSig is one exported member in a reflection attribute.
type MemberSig struct {
	Name string
	Desc string
}

// AddReflectAttr attaches (or replaces) the class's self-describing
// export table. The payload is the class's arena storage, like a
// rewritten method body: it lives until the class is released.
func AddReflectAttr(cf *classfile.ClassFile) {
	size := 4
	for _, ms := range [2][]*classfile.Member{cf.Fields, cf.Methods} {
		for _, m := range ms {
			size += 4 + len(cf.MemberName(m)) + len(cf.MemberDescriptor(m))
		}
	}
	buf := rewrite.ArenaOf(cf).Bytes(size)
	u2 := func(v int) { buf = binary.BigEndian.AppendUint16(buf, uint16(v)) }
	str := func(s string) {
		u2(len(s))
		buf = append(buf, s...)
	}
	u2(len(cf.Fields))
	for _, f := range cf.Fields {
		str(cf.MemberName(f))
		str(cf.MemberDescriptor(f))
	}
	u2(len(cf.Methods))
	for _, m := range cf.Methods {
		str(cf.MemberName(m))
		str(cf.MemberDescriptor(m))
	}
	cf.RemoveAttribute(classfile.AttrDVMReflect)
	cf.AddAttribute(classfile.AttrDVMReflect, buf)
}

// DecodeReflectAttr parses a dvm.Reflect payload back into the export
// lists.
func DecodeReflectAttr(a *classfile.Attribute) (fields, methods []MemberSig, ok bool) {
	buf := a.Info
	off := 0
	u2 := func() (int, bool) {
		if off+2 > len(buf) {
			return 0, false
		}
		v := int(binary.BigEndian.Uint16(buf[off:]))
		off += 2
		return v, true
	}
	str := func() (string, bool) {
		n, k := u2()
		if !k || off+n > len(buf) {
			return "", false
		}
		s := string(buf[off : off+n])
		off += n
		return s, true
	}
	list := func() ([]MemberSig, bool) {
		n, k := u2()
		if !k {
			return nil, false
		}
		out := make([]MemberSig, 0, n)
		for i := 0; i < n; i++ {
			name, k1 := str()
			desc, k2 := str()
			if !k1 || !k2 {
				return nil, false
			}
			out = append(out, MemberSig{Name: name, Desc: desc})
		}
		return out, true
	}
	if fields, ok = list(); !ok {
		return nil, nil, false
	}
	if methods, ok = list(); !ok {
		return nil, nil, false
	}
	return fields, methods, off == len(buf)
}
