package classfile

import (
	"encoding/binary"
	"math"
)

// writer accumulates big-endian classfile output.
type writer struct {
	buf []byte
}

func (w *writer) u1(v uint8)  { w.buf = append(w.buf, v) }
func (w *writer) u2(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u4(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// modifiedUTF8Len returns the encoded length of s in modified UTF-8
// without allocating.
func modifiedUTF8Len(s string) int {
	// Fast path: plain ASCII without NUL encodes byte-for-byte.
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] == 0 || s[i] >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		return len(s)
	}
	n := 0
	for _, r := range s {
		switch {
		case r == 0:
			n += 2
		case r < 0x80:
			n++
		case r < 0x800:
			n += 2
		case r < 0x10000:
			n += 3
		default:
			n += 6 // CESU-8 surrogate pair
		}
	}
	return n
}

// encodedSize computes the exact serialized size of the class, so Encode
// can make a single right-sized allocation instead of growing a buffer.
func (cf *ClassFile) encodedSize() int {
	n := 4 + 2 + 2 // magic, minor, major
	n += 2         // constant_pool_count
	if cf.Pool != nil {
		n += cf.Pool.entriesSize(1)
	}
	n += 2 + 2 + 2 // access_flags, this_class, super_class
	n += 2 + 2*len(cf.Interfaces)
	n += 2
	for _, m := range cf.Fields {
		n += 6 + attributesSize(m.Attributes)
	}
	n += 2
	for _, m := range cf.Methods {
		n += 6 + attributesSize(m.Attributes)
	}
	n += attributesSize(cf.Attributes)
	return n
}

func attributesSize(attrs []*Attribute) int {
	n := 2
	for _, a := range attrs {
		n += 6 + len(a.Info)
	}
	return n
}

// Encode serializes the class back to the on-disk format. Encoding an
// unmodified parse result reproduces a byte-for-byte identical file.
//
// Classes that came from Parse take a splice fast path: byte ranges that
// no filter dirtied (the constant pool, unmodified members, the class
// attribute list) are copied verbatim from the original buffer and only
// dirtied members are re-serialized, so encoding cost scales with what
// was actually touched. The output is always a freshly allocated buffer;
// it never aliases the parse input.
func (cf *ClassFile) Encode() ([]byte, error) { return cf.AppendEncode(nil) }

// AppendEncode is Encode appending to dst, for a caller that only hashes
// or forwards the bytes and recycles the buffer. When dst lacks the room,
// one buffer of exactly the needed size replaces it.
func (cf *ClassFile) AppendEncode(dst []byte) ([]byte, error) {
	if cf.canSplice() {
		return cf.encodeSplice(dst)
	}
	statFullEncodes.Add(1)
	w := &writer{buf: roomFor(dst, cf.encodedSize())}
	w.u4(Magic)
	w.u2(cf.MinorVersion)
	w.u2(cf.MajorVersion)
	if err := encodePool(w, cf.Pool); err != nil {
		return nil, err
	}
	w.u2(cf.AccessFlags)
	w.u2(cf.ThisClass)
	w.u2(cf.SuperClass)
	if len(cf.Interfaces) > 0xFFFF {
		return nil, formatErrf(-1, "too many interfaces (%d)", len(cf.Interfaces))
	}
	w.u2(uint16(len(cf.Interfaces)))
	for _, i := range cf.Interfaces {
		w.u2(i)
	}
	if err := encodeMembers(w, cf.Fields); err != nil {
		return nil, err
	}
	if err := encodeMembers(w, cf.Methods); err != nil {
		return nil, err
	}
	if err := encodeAttributes(w, cf.Attributes); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// canSplice reports whether the class can use the splice fast path: it
// was parsed from a buffer and still carries the pool that parse built
// (a wholesale pool replacement, e.g. by CompactPool, renumbers indices
// and invalidates every recorded byte range).
func (cf *ClassFile) canSplice() bool {
	return cf.raw != nil && cf.Pool != nil && cf.Pool == cf.parsedPool &&
		len(cf.Pool.entries) >= cf.parsedEntries
}

// roomFor returns dst with room for n more bytes, reallocated to exactly
// that when it has less.
func roomFor(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// encodeSplice is the splice fast path of AppendEncode.
func (cf *ClassFile) encodeSplice(dst []byte) ([]byte, error) {
	statSpliceEncodes.Add(1)
	p := cf.Pool
	if err := p.encodable(); err != nil {
		return nil, err
	}
	if len(cf.Interfaces) > 0xFFFF {
		return nil, formatErrf(-1, "too many interfaces (%d)", len(cf.Interfaces))
	}
	poolGrown := len(p.entries) > cf.parsedEntries

	// Exact output size, so the copy happens into one right-sized buffer.
	n := 8 // magic, minor, major
	if poolGrown {
		n += 2 + (cf.poolEnd - 10) + p.entriesSize(cf.parsedEntries)
	} else {
		n += cf.poolEnd - 8
	}
	n += 6 + 2 + 2*len(cf.Interfaces)
	n += 2
	for _, m := range cf.Fields {
		n += cf.memberEncodedSize(m)
	}
	n += 2
	for _, m := range cf.Methods {
		n += cf.memberEncodedSize(m)
	}
	if cf.attrsDirty {
		n += attributesSize(cf.Attributes)
	} else {
		n += len(cf.raw) - cf.attrsStart
	}

	w := &writer{buf: roomFor(dst, n)}
	w.u4(Magic)
	w.u2(cf.MinorVersion)
	w.u2(cf.MajorVersion)
	if poolGrown {
		// Append-only growth keeps every parsed index stable: splice the
		// parsed entries verbatim and re-serialize only the tail.
		w.u2(uint16(len(p.entries)))
		w.raw(cf.raw[10:cf.poolEnd])
		if err := encodePoolEntries(w, p, cf.parsedEntries); err != nil {
			return nil, err
		}
	} else {
		w.raw(cf.raw[8:cf.poolEnd]) // count + all entries
	}
	w.u2(cf.AccessFlags)
	w.u2(cf.ThisClass)
	w.u2(cf.SuperClass)
	w.u2(uint16(len(cf.Interfaces)))
	for _, i := range cf.Interfaces {
		w.u2(i)
	}
	if err := cf.spliceMembers(w, cf.Fields); err != nil {
		return nil, err
	}
	if err := cf.spliceMembers(w, cf.Methods); err != nil {
		return nil, err
	}
	if cf.attrsDirty {
		return w.buf, encodeAttributes(w, cf.Attributes)
	}
	w.raw(cf.raw[cf.attrsStart:])
	return w.buf, nil
}

// spliceable reports whether m's original byte range can be copied
// verbatim: it belongs to this parse and was never marked dirty.
func (cf *ClassFile) spliceable(m *Member) bool {
	return !m.dirty && m.owner == cf && m.spanEnd > m.spanStart
}

// memberEncodedSize is the member's size under the splice path.
func (cf *ClassFile) memberEncodedSize(m *Member) int {
	if cf.spliceable(m) {
		return m.spanEnd - m.spanStart
	}
	return 6 + attributesSize(m.Attributes)
}

// spliceMembers writes a member list, copying unmodified members'
// original bytes and re-serializing dirtied (or newly added) ones.
func (cf *ClassFile) spliceMembers(w *writer, ms []*Member) error {
	if len(ms) > 0xFFFF {
		return formatErrf(-1, "too many members (%d)", len(ms))
	}
	w.u2(uint16(len(ms)))
	for _, m := range ms {
		if cf.spliceable(m) {
			w.raw(cf.raw[m.spanStart:m.spanEnd])
			continue
		}
		w.u2(m.AccessFlags)
		w.u2(m.NameIndex)
		w.u2(m.DescriptorIndex)
		if err := encodeAttributes(w, m.Attributes); err != nil {
			return err
		}
	}
	return nil
}

// entriesSize returns the serialized size of entries[from:].
func (p *ConstPool) entriesSize(from int) int {
	n := 0
	for i := from; i < len(p.entries); i++ {
		e := &p.entries[i]
		switch e.tag {
		case 0: // dead second slot of a Long/Double
		case TagUtf8:
			if u := &p.strs[e.num]; u.raw != nil {
				n += 1 + 2 + len(u.raw)
			} else {
				n += 1 + 2 + modifiedUTF8Len(u.str)
			}
		case TagInteger, TagFloat:
			n += 1 + 4
		case TagLong, TagDouble:
			n += 1 + 8
		case TagClass, TagString:
			n += 1 + 2
		default: // member refs and NameAndType
			n += 1 + 4
		}
	}
	return n
}

// encodable refuses a pool that cannot be serialized: absent, too large
// for the count field, or one an Add* overflowed (the class's code then
// names constants that were never added).
func (p *ConstPool) encodable() error {
	switch {
	case p == nil:
		return formatErrf(-1, "class has no constant pool")
	case p.err != nil:
		return p.err
	case len(p.entries) > MaxPoolSize:
		return formatErrf(-1, "constant pool too large (%d entries)", len(p.entries))
	}
	return nil
}

func encodePool(w *writer, p *ConstPool) error {
	if err := p.encodable(); err != nil {
		return err
	}
	w.u2(uint16(len(p.entries)))
	return encodePoolEntries(w, p, 1)
}

// encodePoolEntries serializes entries[from:] (no count prefix).
func encodePoolEntries(w *writer, p *ConstPool, from int) error {
	for i := from; i < len(p.entries); i++ {
		e := &p.entries[i]
		if e.tag == 0 {
			continue // dead second slot of a Long/Double
		}
		w.u1(uint8(e.tag))
		switch e.tag {
		case TagUtf8:
			// Prefer the original bytes when the entry came from a parse:
			// re-encoding from the string would canonicalize non-canonical
			// modified-UTF8 and make output depend on what was touched.
			u := &p.strs[e.num]
			if u.raw != nil {
				if len(u.raw) > 0xFFFF {
					return formatErrf(-1, "Utf8 constant %d too long (%d bytes)", i, len(u.raw))
				}
				w.u2(uint16(len(u.raw)))
				w.raw(u.raw)
				continue
			}
			n := modifiedUTF8Len(u.str)
			if n > 0xFFFF {
				return formatErrf(-1, "Utf8 constant %d too long (%d bytes)", i, n)
			}
			w.u2(uint16(n))
			w.buf = appendModifiedUTF8(w.buf, u.str)
		case TagInteger, TagFloat:
			w.u4(uint32(e.num))
		case TagLong, TagDouble:
			w.u4(uint32(e.num >> 32))
			w.u4(uint32(e.num))
		case TagClass, TagString:
			w.u2(e.ref1)
		case TagFieldref, TagMethodref, TagInterfaceMethodref, TagNameAndType:
			w.u2(e.ref1)
			w.u2(e.ref2)
		default:
			return formatErrf(-1, "cannot encode constant %d with tag %d", i, e.tag)
		}
	}
	return nil
}

func encodeMembers(w *writer, ms []*Member) error {
	if len(ms) > 0xFFFF {
		return formatErrf(-1, "too many members (%d)", len(ms))
	}
	w.u2(uint16(len(ms)))
	for _, m := range ms {
		w.u2(m.AccessFlags)
		w.u2(m.NameIndex)
		w.u2(m.DescriptorIndex)
		if err := encodeAttributes(w, m.Attributes); err != nil {
			return err
		}
	}
	return nil
}

func encodeAttributes(w *writer, attrs []*Attribute) error {
	if len(attrs) > 0xFFFF {
		return formatErrf(-1, "too many attributes (%d)", len(attrs))
	}
	w.u2(uint16(len(attrs)))
	for _, a := range attrs {
		if len(a.Info) > math.MaxUint32 {
			return formatErrf(-1, "attribute too large")
		}
		w.u2(a.NameIndex)
		w.u4(uint32(len(a.Info)))
		w.raw(a.Info)
	}
	return nil
}
