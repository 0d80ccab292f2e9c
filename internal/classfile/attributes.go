package classfile

import "encoding/binary"

// Standard attribute names used across the DVM services.
const (
	AttrCode            = "Code"
	AttrConstantValue   = "ConstantValue"
	AttrExceptions      = "Exceptions"
	AttrSourceFile      = "SourceFile"
	AttrLineNumberTable = "LineNumberTable"

	// AttrDVMReflect is the self-describing reflection attribute added by
	// the DVM's reflection service (§4.3 of the paper: the verifier was
	// re-pointed from the JDK's slow reflective interface to these
	// attributes). Its payload is produced by the verifier package.
	AttrDVMReflect = "dvm.Reflect"
	// AttrDVMSignature carries the static services' HMAC signature (§2).
	AttrDVMSignature = "dvm.Signature"
)

// ExceptionHandler is one entry of a Code attribute's exception table.
// CatchType is a Class constant index, or 0 for a catch-all (finally).
type ExceptionHandler struct {
	StartPC   uint16
	EndPC     uint16
	HandlerPC uint16
	CatchType uint16
}

// Code is the decoded form of a method's Code attribute.
type Code struct {
	MaxStack   uint16
	MaxLocals  uint16
	Bytecode   []byte
	Handlers   []ExceptionHandler
	Attributes []*Attribute
}

// DecodeCode decodes an attribute known to be a Code attribute.
func DecodeCode(a *Attribute) (*Code, error) {
	c := new(Code)
	if err := c.Decode(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Decode is DecodeCode into a Code the caller provides (the rewriting
// engine keeps a class's Code headers in its arena); every field of c is
// overwritten. On an error c is left partly filled.
func (c *Code) Decode(a *Attribute) error {
	statAttrsDecoded.Add(1)
	r := &reader{data: a.Info}
	c.MaxStack = r.u2()
	c.MaxLocals = r.u2()
	codeLen := int(r.u4())
	if r.err == nil && codeLen == 0 {
		return formatErrf(r.off, "Code attribute with empty bytecode")
	}
	c.Bytecode = r.bytes(codeLen)
	handlerCount := int(r.u2())
	if r.err == nil && handlerCount*8 > len(a.Info)-r.off {
		return formatErrf(r.off, "exception table count %d exceeds attribute", handlerCount)
	}
	c.Handlers = nil
	if r.err == nil && handlerCount > 0 {
		c.Handlers = make([]ExceptionHandler, 0, handlerCount)
	}
	for i := 0; i < handlerCount && r.err == nil; i++ {
		c.Handlers = append(c.Handlers, ExceptionHandler{
			StartPC:   r.u2(),
			EndPC:     r.u2(),
			HandlerPC: r.u2(),
			CatchType: r.u2(),
		})
	}
	attrs, err := parseAttributes(r)
	if err != nil {
		return err
	}
	c.Attributes = attrs
	if r.err != nil {
		return r.err
	}
	if r.off != len(a.Info) {
		return formatErrf(r.off, "trailing bytes in Code attribute")
	}
	return nil
}

// EncodedLen is the size of the attribute payload Encode produces.
func (c *Code) EncodedLen() int {
	return 2 + 2 + 4 + len(c.Bytecode) + 2 + 8*len(c.Handlers) + attributesSize(c.Attributes)
}

// Encode serializes the Code structure into attribute payload form.
func (c *Code) Encode() ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, c.EncodedLen()))
}

// AppendEncode appends the attribute payload to dst.
func (c *Code) AppendEncode(dst []byte) ([]byte, error) {
	w := &writer{buf: dst}
	w.u2(c.MaxStack)
	w.u2(c.MaxLocals)
	if len(c.Bytecode) > 0xFFFFFFF {
		return nil, formatErrf(-1, "bytecode too long (%d)", len(c.Bytecode))
	}
	w.u4(uint32(len(c.Bytecode)))
	w.raw(c.Bytecode)
	if len(c.Handlers) > 0xFFFF {
		return nil, formatErrf(-1, "too many exception handlers (%d)", len(c.Handlers))
	}
	w.u2(uint16(len(c.Handlers)))
	for _, h := range c.Handlers {
		w.u2(h.StartPC)
		w.u2(h.EndPC)
		w.u2(h.HandlerPC)
		w.u2(h.CatchType)
	}
	if err := encodeAttributes(w, c.Attributes); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// CodeOf returns the decoded Code attribute of method m, or nil if the
// method has none (abstract and native methods).
func (cf *ClassFile) CodeOf(m *Member) (*Code, error) {
	a := cf.FindAttr(m.Attributes, AttrCode)
	if a == nil {
		return nil, nil
	}
	return DecodeCode(a)
}

// SetCode replaces (or installs) method m's Code attribute with the
// encoding of c. Rewriting services call this after transforming
// bytecode. The member is marked dirty so Encode re-serializes it.
func (cf *ClassFile) SetCode(m *Member, c *Code) error {
	payload, err := c.Encode()
	if err != nil {
		return err
	}
	cf.SetCodeInfo(m, payload)
	return nil
}

// SetCodeInfo is SetCode for a payload already encoded (Code.AppendEncode),
// which the attribute then aliases until the class is encoded or released.
func (cf *ClassFile) SetCodeInfo(m *Member, payload []byte) {
	m.MarkDirty()
	nameIdx := cf.Pool.AddUtf8(AttrCode)
	for _, a := range m.Attributes {
		if cf.AttrName(a) == AttrCode {
			a.Info = payload
			a.NameIndex = nameIdx
			return
		}
	}
	m.Attributes = cf.Pool.store.appendAttr(m.Attributes, nameIdx, payload)
}

// ConstantValueIndex decodes a ConstantValue attribute payload, returning
// the constant pool index of the initial value.
func ConstantValueIndex(a *Attribute) (uint16, error) {
	if len(a.Info) != 2 {
		return 0, formatErrf(-1, "ConstantValue attribute must be 2 bytes, got %d", len(a.Info))
	}
	return binary.BigEndian.Uint16(a.Info), nil
}

// AddAttribute appends a named attribute with the given payload to the
// class-level attribute list and marks the list dirty.
func (cf *ClassFile) AddAttribute(name string, payload []byte) {
	cf.MarkAttrsDirty()
	cf.Attributes = cf.Pool.store.appendAttr(cf.Attributes, cf.Pool.AddUtf8(name), payload)
}

// AddField appends a field without attributes to the class, its name and
// descriptor interned in that order, and returns it. Like a parsed field
// it is the class's storage, recycled by Release.
func (cf *ClassFile) AddField(access uint16, name, desc string) *Member {
	m := cf.Pool.store.newMember(access, cf.Pool.AddUtf8(name), cf.Pool.AddUtf8(desc))
	cf.Fields = append(cf.Pool.store.memberPtrs.Grow(cf.Fields, 1), m)
	return m
}

// AddMethod is AddField for a method; SetCode gives it a body.
func (cf *ClassFile) AddMethod(access uint16, name, desc string) *Member {
	m := cf.Pool.store.newMember(access, cf.Pool.AddUtf8(name), cf.Pool.AddUtf8(desc))
	cf.Methods = append(cf.Pool.store.memberPtrs.Grow(cf.Methods, 1), m)
	return m
}

// RemoveAttribute deletes all class-level attributes with the given name
// and reports whether any were removed.
func (cf *ClassFile) RemoveAttribute(name string) bool {
	kept := cf.Attributes[:0]
	removed := false
	for _, a := range cf.Attributes {
		if cf.AttrName(a) == name {
			removed = true
			continue
		}
		kept = append(kept, a)
	}
	cf.Attributes = kept
	if removed {
		cf.MarkAttrsDirty()
	}
	return removed
}
