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

// AddReflectAttr attaches (or replaces) the class's self-describing
// export table: the fields, then the methods, each list a u2 count and
// that many names and descriptors, each a u2 length and its bytes. The
// payload is the class's arena storage, like a rewritten method body: it
// lives until the class is released.
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
