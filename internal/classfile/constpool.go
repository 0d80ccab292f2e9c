package classfile

import (
	"fmt"
	"hash/maphash"
	"math"
)

// ConstTag identifies the kind of a constant pool entry (JVM spec 4.4).
type ConstTag uint8

// Constant pool tags for the Java 1.2-era format.
const (
	TagUtf8               ConstTag = 1
	TagInteger            ConstTag = 3
	TagFloat              ConstTag = 4
	TagLong               ConstTag = 5
	TagDouble             ConstTag = 6
	TagClass              ConstTag = 7
	TagString             ConstTag = 8
	TagFieldref           ConstTag = 9
	TagMethodref          ConstTag = 10
	TagInterfaceMethodref ConstTag = 11
	TagNameAndType        ConstTag = 12
)

// String returns the spec name of the tag.
func (t ConstTag) String() string {
	switch t {
	case TagUtf8:
		return "Utf8"
	case TagInteger:
		return "Integer"
	case TagFloat:
		return "Float"
	case TagLong:
		return "Long"
	case TagDouble:
		return "Double"
	case TagClass:
		return "Class"
	case TagString:
		return "String"
	case TagFieldref:
		return "Fieldref"
	case TagMethodref:
		return "Methodref"
	case TagInterfaceMethodref:
		return "InterfaceMethodref"
	case TagNameAndType:
		return "NameAndType"
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// Constant is the exported view of one constant-pool entry, built by
// Entry for callers that want a whole entry at once (phase 1, the
// assembler and disassembler, pool compaction, the client's ldc). The
// pool itself stores the compact entry below; the resolving accessors
// (Tag, Utf8, ClassName, NameAndType, Ref, StringValue) read that in
// place and never build one of these. Which fields are meaningful
// depends on Tag:
//
//	Utf8                     Str
//	Integer                  Int
//	Float                    Float
//	Long                     Long
//	Double                   Double
//	Class                    Ref1 = name_index (Utf8)
//	String                   Ref1 = string_index (Utf8)
//	Fieldref / Methodref /
//	InterfaceMethodref       Ref1 = class_index, Ref2 = name_and_type_index
//	NameAndType              Ref1 = name_index, Ref2 = descriptor_index
type Constant struct {
	Tag    ConstTag
	Str    string
	Int    int32
	Float  float32
	Long   int64
	Double float64
	Ref1   uint16
	Ref2   uint16
}

// Wide reports whether the constant occupies two pool slots
// (Long and Double do, per the spec's famous design wart).
func (c Constant) Wide() bool { return c.Tag == TagLong || c.Tag == TagDouble }

// entry is the stored form of a constant: 16 bytes whatever the tag. A
// zero tag marks slot 0 and the dead second slot of a Long/Double.
type entry struct {
	tag        ConstTag
	ref1, ref2 uint16
	// num is, by tag: the value's bit pattern (Integer, Float, Long,
	// Double); the index of the string in ConstPool.strs (Utf8); one more
	// than the index of the resolution in ConstPool.refs, or 0 while the
	// reference is unresolved (Fieldref, Methodref, InterfaceMethodref).
	num uint64
}

func (e *entry) wide() bool { return e.tag == TagLong || e.tag == TagDouble }

func (e *entry) isRef() bool {
	return e.tag == TagFieldref || e.tag == TagMethodref || e.tag == TagInterfaceMethodref
}

// utf8Entry is the side record of a Utf8 entry. The parser validates the
// modified-UTF8 bytes but defers building the Go string until first
// touch; raw is kept after that so the encoder reproduces non-canonical
// encodings byte for byte regardless of what was touched.
type utf8Entry struct {
	raw     []byte     // original modified-UTF8 bytes; nil for entries made by Add*
	str     string     // the decoded string, once decoded is set
	desc    Descriptor // see ConstPool.Descriptor
	decoded bool
	ascii   bool // raw is plain ASCII: its bytes are the string's
}

// Descriptor is what a consumer that parses type descriptors (package
// bytecode; this package cannot import it) remembers on the pool about
// one Utf8 constant, so that each descriptor is parsed once per class
// however many instructions name it.
type Descriptor struct {
	Parsed     any    // the consumer's parsed form; nil until it stores one
	ParamSlots uint16 // method descriptor: operand-stack slots of the parameters
	Slots      uint8  // field descriptor: slots of the value; method descriptor: of the result
}

// refMemo is a member reference resolved once: entries are append-only
// and never rewritten, so nothing invalidates it.
type refMemo struct {
	ref  MemberRef
	desc uint16 // index of the descriptor's Utf8 constant
}

// ConstPool holds the constant pool. Index 0 is reserved/invalid, exactly
// as on disk; Long and Double entries are followed by an unusable
// placeholder slot. The pool supports interning: the Add* methods return
// the index of an existing identical entry instead of growing the pool,
// which rewriting services rely on to keep transformed classes small.
//
// A pool belongs to one goroutine at a time, from Parse (or NewConstPool)
// to Release: reads memoize — a Utf8 string on first touch, a member
// reference on first Ref — by writing into the pool without
// synchronization.
type ConstPool struct {
	entries []entry // entries[0] is a zero placeholder
	strs    []utf8Entry
	refs    []refMemo

	// index is the interning table: open addressing over entry indices (0
	// = empty slot), a power of two in length and less than half full. It
	// stores no keys — a probe compares against the entry a slot names —
	// and is empty until the first Add*, so a class no filter adds
	// constants to never pays for it.
	index []uint16

	recent     [4]recentRef // see addRef
	nextRecent int

	err error // sticky: an Add* found the pool full (see Err)

	store   store   // the class's member and attribute tables (see store)
	scratch Scratch // see ConstPool.Scratch
}

// Scratch is per-class storage that a layer above this package (the
// rewriting engine's arena of decoded method bodies) keeps on the pool,
// the way Member.Decoded and Descriptor.Parsed keep their memos: this
// package only stores it. It shares the pool's life: Release resets it and
// recycles it with the pool, so the next class parsed into the pool finds
// it empty and warm.
type Scratch interface {
	// Reset ends the storage's service to one class. Nothing handed out
	// from it may be used afterwards.
	Reset()
}

// Scratch returns the pool's scratch storage, nil until SetScratch.
func (p *ConstPool) Scratch() Scratch { return p.scratch }

// SetScratch installs the pool's scratch storage.
func (p *ConstPool) SetScratch(s Scratch) { p.scratch = s }

// recentRef is one remembered answer of addRef.
type recentRef struct {
	tag ConstTag
	idx uint16
	ref MemberRef
}

// MaxPoolSize is the largest constant_pool_count the format can carry (a
// u2); the highest usable index is one less.
const MaxPoolSize = 0xFFFF

var errPoolOverflow = formatErrf(-1, "constant pool overflow")

// NewConstPool returns an empty pool (containing only the reserved slot 0).
func NewConstPool() *ConstPool {
	return &ConstPool{entries: make([]entry, 1)}
}

// Size returns the constant_pool_count value: number of slots including
// the reserved zeroth slot and Long/Double placeholders.
func (p *ConstPool) Size() int { return len(p.entries) }

// Err reports whether an Add* call found the pool full. The error is
// sticky: once the pool has overflowed every Add* returns 0, the rewrite
// pipeline rejects the class and Encode refuses it, so a class whose pool
// has no room for the services' constants fails with this one message
// however far the filter got.
func (p *ConstPool) Err() error { return p.err }

// Valid reports whether idx names a usable entry (non-zero, in range, and
// not the dead second slot of a Long/Double).
func (p *ConstPool) Valid(idx uint16) bool {
	return int(idx) < len(p.entries) && p.entries[idx].tag != 0
}

// at returns the stored entry at idx, or the error every accessor reports
// for an index that names none.
func (p *ConstPool) at(idx uint16) (*entry, error) {
	if !p.Valid(idx) {
		return nil, formatErrf(-1, "invalid constant pool index %d (pool size %d)", idx, len(p.entries))
	}
	return &p.entries[idx], nil
}

// Entry returns a view of the constant at idx. It returns an error rather
// than panicking so that phase-1 verification can report malformed
// indices in hostile classfiles gracefully. Viewing a lazy Utf8 entry
// decodes its string; callers that only need the tag should use Tag,
// which decodes nothing.
func (p *ConstPool) Entry(idx uint16) (Constant, error) {
	e, err := p.at(idx)
	if err != nil {
		return Constant{}, err
	}
	c := Constant{Tag: e.tag, Ref1: e.ref1, Ref2: e.ref2}
	switch e.tag {
	case TagUtf8:
		c.Str = p.text(e)
	case TagInteger:
		c.Int = int32(uint32(e.num))
	case TagFloat:
		c.Float = math.Float32frombits(uint32(e.num))
	case TagLong:
		c.Long = int64(e.num)
	case TagDouble:
		c.Double = math.Float64frombits(e.num)
	}
	return c, nil
}

// text returns the string of a Utf8 entry, decoding it on first touch.
func (p *ConstPool) text(e *entry) string {
	u := &p.strs[e.num]
	if !u.decoded {
		s, ok := decodeModifiedUTF8(u.raw)
		if !ok {
			// Unreachable for parsed pools: Parse validated the bytes.
			s = string(u.raw)
		}
		u.str, u.decoded = s, true
		statUtf8Decoded.Add(1)
	}
	return u.str
}

// Tag returns the tag at idx, or 0 if the index is invalid.
func (p *ConstPool) Tag(idx uint16) ConstTag {
	if int(idx) >= len(p.entries) {
		return 0
	}
	return p.entries[idx].tag
}

// Utf8 resolves idx as a Utf8 constant.
func (p *ConstPool) Utf8(idx uint16) (string, error) {
	e, err := p.at(idx)
	if err != nil {
		return "", err
	}
	if e.tag != TagUtf8 {
		return "", formatErrf(-1, "constant %d is %s, want Utf8", idx, e.tag)
	}
	return p.text(e), nil
}

// ClassName resolves idx as a Class constant and returns the referenced
// internal class name.
func (p *ConstPool) ClassName(idx uint16) (string, error) {
	e, err := p.at(idx)
	if err != nil {
		return "", err
	}
	if e.tag != TagClass {
		return "", formatErrf(-1, "constant %d is %s, want Class", idx, e.tag)
	}
	return p.Utf8(e.ref1)
}

// NameAndType resolves idx as a NameAndType constant, returning the name
// and descriptor strings.
func (p *ConstPool) NameAndType(idx uint16) (name, desc string, err error) {
	e, err := p.at(idx)
	if err != nil {
		return "", "", err
	}
	if e.tag != TagNameAndType {
		return "", "", formatErrf(-1, "constant %d is %s, want NameAndType", idx, e.tag)
	}
	if name, err = p.Utf8(e.ref1); err != nil {
		return "", "", err
	}
	if desc, err = p.Utf8(e.ref2); err != nil {
		return "", "", err
	}
	return name, desc, nil
}

// MemberRef is the resolved form of a Fieldref, Methodref, or
// InterfaceMethodref constant.
type MemberRef struct {
	Class string // internal class name owning the member
	Name  string
	Desc  string
}

func (r MemberRef) String() string { return r.Class + "." + r.Name + r.Desc }

// Ref resolves idx as a member reference constant of any of the three
// reference tags. The resolution is remembered: a repeat call reads it
// back without walking the pool.
func (p *ConstPool) Ref(idx uint16) (MemberRef, error) {
	m, err := p.resolve(idx)
	if err != nil {
		return MemberRef{}, err
	}
	return m.ref, nil
}

// RefDescriptor returns the index of the Utf8 constant holding the
// descriptor of the member reference at idx (the key for Descriptor),
// failing exactly as Ref does.
func (p *ConstPool) RefDescriptor(idx uint16) (uint16, error) {
	m, err := p.resolve(idx)
	if err != nil {
		return 0, err
	}
	return m.desc, nil
}

func (p *ConstPool) resolve(idx uint16) (*refMemo, error) {
	e, err := p.at(idx)
	if err != nil {
		return nil, err
	}
	if !e.isRef() {
		return nil, formatErrf(-1, "constant %d is %s, want a member reference", idx, e.tag)
	}
	if e.num != 0 {
		return &p.refs[e.num-1], nil
	}
	cls, err := p.ClassName(e.ref1)
	if err != nil {
		return nil, err
	}
	name, desc, err := p.NameAndType(e.ref2)
	if err != nil {
		return nil, err
	}
	p.refs = append(p.refs, refMemo{
		ref:  MemberRef{Class: cls, Name: name, Desc: desc},
		desc: p.entries[e.ref2].ref2,
	})
	e.num = uint64(len(p.refs))
	return &p.refs[e.num-1], nil
}

// Descriptor returns what SetDescriptor last stored for the Utf8
// constant at idx; the zero Descriptor if nothing was, or idx names no
// Utf8 constant.
func (p *ConstPool) Descriptor(idx uint16) Descriptor {
	if p.Tag(idx) != TagUtf8 {
		return Descriptor{}
	}
	return p.strs[p.entries[idx].num].desc
}

// SetDescriptor remembers d for the Utf8 constant at idx. It is a no-op
// when idx names no Utf8 constant.
func (p *ConstPool) SetDescriptor(idx uint16, d Descriptor) {
	if p.Tag(idx) == TagUtf8 {
		p.strs[p.entries[idx].num].desc = d
	}
}

// StringValue resolves idx as a String constant and returns its text.
func (p *ConstPool) StringValue(idx uint16) (string, error) {
	e, err := p.at(idx)
	if err != nil {
		return "", err
	}
	if e.tag != TagString {
		return "", formatErrf(-1, "constant %d is %s, want String", idx, e.tag)
	}
	return p.Utf8(e.ref1)
}

// push adds a raw entry (no interning) and returns its index. The parser
// uses it directly, which must preserve on-disk indices; s is the side
// record of a Utf8 entry.
func (p *ConstPool) push(e entry, s utf8Entry) (uint16, error) {
	idx, slots := len(p.entries), 1
	if e.wide() {
		slots = 2
	}
	if idx+slots > MaxPoolSize {
		return 0, errPoolOverflow
	}
	if e.tag == TagUtf8 {
		e.num = uint64(len(p.strs))
		p.strs = append(p.strs, s)
	}
	p.entries = append(p.entries, e)
	if slots == 2 {
		p.entries = append(p.entries, entry{})
	}
	return uint16(idx), nil
}

// hashSeed keys the interning table's string hashes. Which slot an entry
// lands in varies from process to process; which index an Add* returns
// does not (the lowest index holding an equal entry).
var hashSeed = maphash.MakeSeed()

// hashKey is the interning hash of a constant that is not a Utf8.
func hashKey(e *entry) uint64 {
	k := uint64(e.tag)<<32 | uint64(e.ref1)<<16 | uint64(e.ref2)
	if !e.isRef() {
		k ^= e.num * 0xff51afd7ed558ccd // a reference's num is memo state, not identity
	}
	k *= 0x9e3779b97f4a7c15
	return k ^ k>>32
}

// sameKey reports whether two constants that are not Utf8s are equal.
// Numbers compare by bit pattern, so distinct NaN payloads stay distinct
// and -0 != +0, matching the exact on-disk representation.
func sameKey(a, b *entry) bool {
	return a.tag == b.tag && a.ref1 == b.ref1 && a.ref2 == b.ref2 && (a.isRef() || a.num == b.num)
}

// undecoded returns the bytes of a Utf8 entry that are its string's own —
// plain ASCII — while that string has not been built; the interning table
// hashes and compares such an entry without building it.
func (p *ConstPool) undecoded(e *entry) ([]byte, bool) {
	u := &p.strs[e.num]
	return u.raw, u.ascii && !u.decoded
}

// textIs reports whether the Utf8 entry e holds the string s.
func (p *ConstPool) textIs(e *entry, s string) bool {
	if raw, ok := p.undecoded(e); ok {
		return string(raw) == s
	}
	return p.text(e) == s
}

// find probes the interning table for the constant e — for a Utf8, the
// string s. It returns the index of the equal entry, or 0 and the empty
// slot the probe ended on.
func (p *ConstPool) find(e *entry, s string) (idx uint16, slot int) {
	var h uint64
	if e.tag == TagUtf8 {
		h = maphash.String(hashSeed, s)
	} else {
		h = hashKey(e)
	}
	mask := len(p.index) - 1
	for slot = int(h) & mask; p.index[slot] != 0; slot = (slot + 1) & mask {
		i := p.index[slot]
		c := &p.entries[i]
		if e.tag != TagUtf8 && sameKey(c, e) || e.tag == TagUtf8 && c.tag == TagUtf8 && p.textIs(c, s) {
			return i, slot
		}
	}
	return 0, slot
}

// hashStored is the interning hash of an entry of the pool.
func (p *ConstPool) hashStored(e *entry) uint64 {
	if e.tag != TagUtf8 {
		return hashKey(e)
	}
	if raw, ok := p.undecoded(e); ok {
		return maphash.Bytes(hashSeed, raw)
	}
	return maphash.String(hashSeed, p.text(e))
}

// equalStored reports whether two entries of the pool are equal constants.
func (p *ConstPool) equalStored(a, b *entry) bool {
	if a.tag != TagUtf8 || b.tag != TagUtf8 {
		return sameKey(a, b)
	}
	if raw, ok := p.undecoded(b); ok {
		if araw, ok := p.undecoded(a); ok {
			return string(araw) == string(raw)
		}
		return p.text(a) == string(raw)
	}
	return p.textIs(a, p.text(b))
}

// buildIndex sizes the interning table for the current entries with room
// to grow and fills it in ascending order, so that of two equal entries
// the lower index is the one Add* finds — rewriters reuse the class's own
// constants. It decodes no plain-ASCII string to do so.
func (p *ConstPool) buildIndex() {
	size := 64
	for size < 2*len(p.entries)+64 {
		size *= 2
	}
	if cap(p.index) >= size {
		p.index = p.index[:size]
		clear(p.index)
	} else {
		p.index = make([]uint16, size)
	}
	mask := size - 1
	for i := 1; i < len(p.entries); i++ {
		e := &p.entries[i]
		if e.tag == 0 {
			continue
		}
		slot := int(p.hashStored(e)) & mask
		for p.index[slot] != 0 && !p.equalStored(&p.entries[p.index[slot]], e) {
			slot = (slot + 1) & mask
		}
		if p.index[slot] == 0 {
			p.index[slot] = uint16(i)
		}
	}
}

// intern returns the index of the constant (e, s), appending it if the
// pool holds no equal entry; 0 once the pool has overflowed.
func (p *ConstPool) intern(e entry, s string) uint16 {
	if p.err != nil {
		return 0
	}
	if 2*len(p.entries) >= len(p.index) {
		p.buildIndex()
	}
	idx, slot := p.find(&e, s)
	if idx != 0 {
		return idx
	}
	idx, p.err = p.push(e, utf8Entry{str: s, decoded: true})
	if p.err != nil {
		return 0
	}
	p.index[slot] = idx
	return idx
}

// AddUtf8 interns a Utf8 constant and returns its index.
func (p *ConstPool) AddUtf8(s string) uint16 {
	return p.intern(entry{tag: TagUtf8}, s)
}

// AddInteger interns an Integer constant.
func (p *ConstPool) AddInteger(v int32) uint16 {
	return p.intern(entry{tag: TagInteger, num: uint64(uint32(v))}, "")
}

// AddFloat interns a Float constant.
func (p *ConstPool) AddFloat(v float32) uint16 {
	return p.intern(entry{tag: TagFloat, num: uint64(math.Float32bits(v))}, "")
}

// AddLong interns a Long constant (occupies two slots).
func (p *ConstPool) AddLong(v int64) uint16 {
	return p.intern(entry{tag: TagLong, num: uint64(v)}, "")
}

// AddDouble interns a Double constant (occupies two slots).
func (p *ConstPool) AddDouble(v float64) uint16 {
	return p.intern(entry{tag: TagDouble, num: math.Float64bits(v)}, "")
}

// AddClass interns a Class constant for the given internal name.
func (p *ConstPool) AddClass(name string) uint16 {
	return p.intern(entry{tag: TagClass, ref1: p.AddUtf8(name)}, "")
}

// AddString interns a String constant with the given text.
func (p *ConstPool) AddString(s string) uint16 {
	return p.intern(entry{tag: TagString, ref1: p.AddUtf8(s)}, "")
}

// AddNameAndType interns a NameAndType constant.
func (p *ConstPool) AddNameAndType(name, desc string) uint16 {
	return p.intern(entry{tag: TagNameAndType, ref1: p.AddUtf8(name), ref2: p.AddUtf8(desc)}, "")
}

// AddFieldref interns a Fieldref constant.
func (p *ConstPool) AddFieldref(class, name, desc string) uint16 {
	return p.addRef(TagFieldref, class, name, desc)
}

// AddMethodref interns a Methodref constant.
func (p *ConstPool) AddMethodref(class, name, desc string) uint16 {
	return p.addRef(TagMethodref, class, name, desc)
}

// AddInterfaceMethodref interns an InterfaceMethodref constant.
func (p *ConstPool) AddInterfaceMethodref(class, name, desc string) uint16 {
	return p.addRef(TagInterfaceMethodref, class, name, desc)
}

// addRef interns a member reference. A rewriting filter asks for the same
// few references — its runtime hooks — once per method or per site, so
// the last few answers are kept and found again by comparing three
// strings instead of probing the table six times.
func (p *ConstPool) addRef(tag ConstTag, class, name, desc string) uint16 {
	if p.err != nil {
		return 0
	}
	ref := MemberRef{Class: class, Name: name, Desc: desc}
	for i := range p.recent {
		if r := &p.recent[i]; r.tag == tag && r.ref == ref {
			return r.idx
		}
	}
	idx := p.intern(entry{tag: tag, ref1: p.AddClass(class), ref2: p.AddNameAndType(name, desc)}, "")
	if idx != 0 {
		p.recent[p.nextRecent] = recentRef{tag: tag, idx: idx, ref: ref}
		p.nextRecent = (p.nextRecent + 1) % len(p.recent)
	}
	return idx
}
