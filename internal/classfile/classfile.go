// Package classfile implements a reader and writer for the Java class file
// format (JVM specification, chapter 4, as of the Java 1.2 era targeted by
// the SOSP'99 distributed virtual machine paper).
//
// The package is the lowest substrate of the DVM: every static service —
// verifier, security rewriter, auditor, optimizer, compiler — parses
// incoming classes with it, transforms them, and re-serializes them. It is
// therefore built to round-trip: Parse followed by Encode reproduces an
// equivalent classfile, and the constant pool supports interning new
// entries so rewriters can splice in references without disturbing
// existing indices.
package classfile

import "fmt"

// Magic is the four-byte signature that begins every Java class file.
const Magic = 0xCAFEBABE

// Class access and property flags (JVM spec table 4.1).
const (
	AccPublic       = 0x0001
	AccPrivate      = 0x0002
	AccProtected    = 0x0004
	AccStatic       = 0x0008
	AccFinal        = 0x0010
	AccSuper        = 0x0020 // on classes
	AccSynchronized = 0x0020 // on methods
	AccVolatile     = 0x0040
	AccTransient    = 0x0080
	AccNative       = 0x0100
	AccInterface    = 0x0200
	AccAbstract     = 0x0400
)

// ClassFile is the in-memory representation of a parsed .class file.
// Indices (ThisClass, SuperClass, name/descriptor indices inside members)
// refer to entries in Pool exactly as in the on-disk format; accessor
// methods resolve them to strings.
type ClassFile struct {
	MinorVersion uint16
	MajorVersion uint16
	Pool         *ConstPool
	AccessFlags  uint16
	ThisClass    uint16 // Pool index of a Class constant
	SuperClass   uint16 // Pool index of a Class constant, 0 for java/lang/Object
	Interfaces   []uint16
	Fields       []*Member
	Methods      []*Member
	Attributes   []*Attribute

	// Zero-copy splice state, set by Parse and zero for classes built
	// programmatically. raw is the buffer the class was parsed from; the
	// recorded offsets let Encode splice byte ranges that no filter
	// touched straight into the output instead of re-serializing them.
	// Encode falls back to a full re-encode whenever the pool was
	// replaced wholesale (Pool != parsedPool, e.g. by CompactPool).
	raw           []byte
	poolEnd       int        // offset just past the last constant pool entry
	attrsStart    int        // offset of the class-level attributes_count
	parsedPool    *ConstPool // pool produced by Parse, for identity check
	parsedEntries int        // pool slot count at parse time
	attrsDirty    bool       // class-level attribute list was modified
}

// Member is a field or method description (field_info / method_info).
type Member struct {
	AccessFlags     uint16
	NameIndex       uint16
	DescriptorIndex uint16
	Attributes      []*Attribute

	// Splice state: the member's byte range in owner.raw, valid while the
	// member is unmodified. owner guards against splicing a member that
	// was moved into a different class's member list.
	owner              *ClassFile
	spanStart, spanEnd int
	dirty              bool

	// decoded is the rewriting engine's memo of this method's decoded
	// body (see Decoded); the classfile package only stores and drops it.
	decoded any
}

// Decoded returns what SetDecoded last stored on the member, or nil. The
// rewriting engine keeps one decoded form of a method body here so that
// every pipeline stage finds it instead of decoding again; the holder
// checks that it still describes the member's Code attribute, and
// ClassFile.Release drops it.
func (m *Member) Decoded() any { return m.decoded }

// SetDecoded stores v as the member's decoded-body memo. Distinct
// members may be set from distinct goroutines.
func (m *Member) SetDecoded(v any) { m.decoded = v }

// MarkDirty records that the member was structurally modified, forcing
// Encode to re-serialize it instead of splicing its original bytes.
// SetCode calls this automatically; callers that mutate a member's
// fields or attribute payloads directly must call it themselves.
func (m *Member) MarkDirty() { m.dirty = true }

// Dirty reports whether the member was marked modified since parsing.
func (m *Member) Dirty() bool { return m.dirty }

// MarkAttrsDirty records that the class-level attribute list was
// modified. AddAttribute and RemoveAttribute call this automatically.
func (cf *ClassFile) MarkAttrsDirty() { cf.attrsDirty = true }

// Attribute is a named attribute with its raw payload. Known attributes
// (Code, ConstantValue, Exceptions, SourceFile, LineNumberTable) can be
// decoded with the typed helpers in attributes.go; unknown attributes are
// preserved verbatim so rewriting never drops vendor data.
type Attribute struct {
	NameIndex uint16
	Info      []byte
}

// Name returns the class's fully qualified internal name
// (e.g. "java/lang/String").
func (cf *ClassFile) Name() string {
	n, err := cf.Pool.ClassName(cf.ThisClass)
	if err != nil {
		return ""
	}
	return n
}

// SuperName returns the internal name of the superclass, or "" for
// java/lang/Object (whose super_class index is zero).
func (cf *ClassFile) SuperName() string {
	if cf.SuperClass == 0 {
		return ""
	}
	n, err := cf.Pool.ClassName(cf.SuperClass)
	if err != nil {
		return ""
	}
	return n
}

// InterfaceNames resolves the direct superinterface names.
func (cf *ClassFile) InterfaceNames() []string {
	out := make([]string, 0, len(cf.Interfaces))
	for _, idx := range cf.Interfaces {
		n, err := cf.Pool.ClassName(idx)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	return out
}

// IsInterface reports whether the class was declared as an interface.
func (cf *ClassFile) IsInterface() bool { return cf.AccessFlags&AccInterface != 0 }

// FindMethod returns the first method with the given name and descriptor,
// or nil if the class declares no such method.
func (cf *ClassFile) FindMethod(name, desc string) *Member {
	for _, m := range cf.Methods {
		if cf.MemberName(m) == name && cf.MemberDescriptor(m) == desc {
			return m
		}
	}
	return nil
}

// FindField returns the first field with the given name and descriptor,
// or nil if the class declares no such field.
func (cf *ClassFile) FindField(name, desc string) *Member {
	for _, f := range cf.Fields {
		if cf.MemberName(f) == name && cf.MemberDescriptor(f) == desc {
			return f
		}
	}
	return nil
}

// MemberName resolves a member's name through the constant pool.
func (cf *ClassFile) MemberName(m *Member) string {
	s, err := cf.Pool.Utf8(m.NameIndex)
	if err != nil {
		return ""
	}
	return s
}

// MemberDescriptor resolves a member's type descriptor through the pool.
func (cf *ClassFile) MemberDescriptor(m *Member) string {
	s, err := cf.Pool.Utf8(m.DescriptorIndex)
	if err != nil {
		return ""
	}
	return s
}

// AttrName resolves an attribute's name through the constant pool.
func (cf *ClassFile) AttrName(a *Attribute) string {
	s, err := cf.Pool.Utf8(a.NameIndex)
	if err != nil {
		return ""
	}
	return s
}

// FindAttr returns the first attribute with the given name in the list,
// or nil if absent.
func (cf *ClassFile) FindAttr(attrs []*Attribute, name string) *Attribute {
	for _, a := range attrs {
		if cf.AttrName(a) == name {
			return a
		}
	}
	return nil
}

// FormatError describes a structural malformation found while parsing or
// validating a class file. The verifier's phase 1 reports these.
type FormatError struct {
	Offset int    // byte offset where the problem was detected, -1 if unknown
	Msg    string // human-readable description
}

func (e *FormatError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("classfile: offset %d: %s", e.Offset, e.Msg)
	}
	return "classfile: " + e.Msg
}

func formatErrf(off int, format string, args ...any) error {
	return &FormatError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}
