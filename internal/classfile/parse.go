package classfile

import (
	"encoding/binary"
	"unicode/utf8"
)

// MaxClassFileSize bounds the classfiles the parser accepts. The proxy
// parses hostile input from the open Internet; an explicit bound keeps a
// malicious length field from forcing a huge allocation.
const MaxClassFileSize = 16 << 20

// reader is a bounds-checked big-endian cursor over the raw classfile.
type reader struct {
	data  []byte
	off   int
	err   error
	arena *attrArena // shared attribute storage for one Parse, nil elsewhere
}

// attrArena amortizes attribute allocation across one Parse call: every
// member's attribute list is carved out of two shared growing arrays
// instead of paying two allocations per member, which dominated the
// remaining parse cost once strings went lazy. Sub-slices are handed out
// with capped capacity so a later append (SetCode installing a new
// attribute) copies out instead of overwriting a neighbor's entries.
type attrArena struct {
	backing []Attribute
	ptrs    []*Attribute
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = formatErrf(r.off, format, args...)
	}
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.data) {
		r.fail("truncated: need %d bytes, have %d", n, len(r.data)-r.off)
		return false
	}
	return true
}

func (r *reader) u1() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u2() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *reader) u4() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || !r.need(n) {
		if n < 0 {
			r.fail("negative length %d", n)
		}
		return nil
	}
	v := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Parse decodes a classfile from its serialized form. It performs the
// structural decoding only; deeper consistency checks (phase 1 of
// verification) live in the verifier package so that the split between
// "can be decoded" and "is well-formed" matches the paper's service
// factoring.
func Parse(data []byte) (*ClassFile, error) {
	if len(data) > MaxClassFileSize {
		return nil, formatErrf(0, "classfile exceeds maximum size (%d > %d)", len(data), MaxClassFileSize)
	}
	r := &reader{data: data, arena: &attrArena{}}
	if magic := r.u4(); r.err == nil && magic != Magic {
		return nil, formatErrf(0, "bad magic 0x%08X", magic)
	}
	cf := &ClassFile{raw: data}
	if err := cf.parse(r); err != nil {
		// A rejected class returns its recycled pool like an accepted one:
		// malformed input is what a hostile origin sends most of.
		cf.Release()
		return nil, err
	}
	return cf, nil
}

// parse fills cf from r, positioned after the magic. On an error cf.Pool
// is the pool taken from poolScratch, if parsing got that far.
func (cf *ClassFile) parse(r *reader) (err error) {
	data := r.data
	cf.MinorVersion = r.u2()
	cf.MajorVersion = r.u2()

	if err := parsePool(r, cf); err != nil {
		return err
	}
	pool := cf.Pool
	cf.poolEnd = r.off
	cf.parsedPool = pool
	cf.parsedEntries = len(pool.entries)

	cf.AccessFlags = r.u2()
	cf.ThisClass = r.u2()
	cf.SuperClass = r.u2()

	ifaceCount := int(r.u2())
	if r.err == nil && ifaceCount*2 > len(data)-r.off {
		return formatErrf(r.off, "interface count %d exceeds remaining data", ifaceCount)
	}
	cf.Interfaces = make([]uint16, 0, ifaceCount)
	for i := 0; i < ifaceCount && r.err == nil; i++ {
		cf.Interfaces = append(cf.Interfaces, r.u2())
	}

	if cf.Fields, err = parseMembers(r, cf); err != nil {
		return err
	}
	if cf.Methods, err = parseMembers(r, cf); err != nil {
		return err
	}
	cf.attrsStart = r.off
	if cf.Attributes, err = parseAttributes(r); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return formatErrf(r.off, "%d trailing bytes after class structure", len(data)-r.off)
	}
	return nil
}

// parsePool reads the constant pool into cf.Pool, which it sets as soon as
// it has taken a pool from poolScratch so that a failed parse returns it.
func parsePool(r *reader, cf *ClassFile) error {
	count := int(r.u2())
	if r.err != nil {
		return r.err
	}
	if count == 0 {
		return formatErrf(r.off, "constant pool count must be at least 1")
	}
	// Each pool entry is at least 3 bytes on disk; cap the size hint so a
	// hostile count can't force a huge allocation up front.
	hint := count
	if max := (len(r.data)-r.off)/3 + 1; hint > max {
		hint = max
	}
	pool := newParsePool(hint)
	cf.Pool = pool
	for len(pool.entries) < count {
		e := entry{tag: ConstTag(r.u1())}
		if r.err != nil {
			return r.err
		}
		var s utf8Entry
		switch e.tag {
		case TagUtf8:
			n := int(r.u2())
			s.raw = r.bytes(n)
			if r.err != nil {
				return r.err
			}
			// Validate now (hostile input must fail at the parse gate) but
			// defer building the Go string until something touches it.
			var ok bool
			if ok, s.ascii = validateModifiedUTF8(s.raw); !ok {
				return formatErrf(r.off, "malformed modified-UTF8 in constant %d", len(pool.entries))
			}
			statUtf8Seen.Add(1)
		case TagInteger, TagFloat:
			e.num = uint64(r.u4())
		case TagLong, TagDouble:
			hi := uint64(r.u4())
			e.num = hi<<32 | uint64(r.u4())
		case TagClass, TagString:
			e.ref1 = r.u2()
		case TagFieldref, TagMethodref, TagInterfaceMethodref, TagNameAndType:
			e.ref1 = r.u2()
			e.ref2 = r.u2()
		default:
			return formatErrf(r.off, "unknown constant pool tag %d", e.tag)
		}
		if r.err != nil {
			return r.err
		}
		if e.wide() && len(pool.entries)+2 > count {
			return formatErrf(r.off, "Long/Double constant overruns declared pool count %d", count)
		}
		if _, err := pool.push(e, s); err != nil {
			return err
		}
	}
	return nil
}

func parseMembers(r *reader, cf *ClassFile) ([]*Member, error) {
	count := int(r.u2())
	if r.err != nil {
		return nil, r.err
	}
	// Each member needs at least 8 bytes (flags, name, desc, attr count).
	if count*8 > len(r.data)-r.off {
		return nil, formatErrf(r.off, "member count %d exceeds remaining data", count)
	}
	// One backing array for all members instead of one allocation each;
	// the pointers stay valid for the life of the ClassFile.
	backing := make([]Member, count)
	members := make([]*Member, count)
	for i := 0; i < count; i++ {
		m := &backing[i]
		m.owner = cf
		m.spanStart = r.off
		m.AccessFlags = r.u2()
		m.NameIndex = r.u2()
		m.DescriptorIndex = r.u2()
		attrs, err := parseAttributes(r)
		if err != nil {
			return nil, err
		}
		m.Attributes = attrs
		m.spanEnd = r.off
		members[i] = m
	}
	return members, r.err
}

func parseAttributes(r *reader) ([]*Attribute, error) {
	count := int(r.u2())
	if r.err != nil {
		return nil, r.err
	}
	if count*6 > len(r.data)-r.off {
		return nil, formatErrf(r.off, "attribute count %d exceeds remaining data", count)
	}
	if ar := r.arena; ar != nil {
		start := len(ar.ptrs)
		for i := 0; i < count; i++ {
			nameIdx := r.u2()
			length := int(r.u4())
			info := r.bytes(length)
			if r.err != nil {
				return nil, r.err
			}
			ar.backing = append(ar.backing, Attribute{NameIndex: nameIdx, Info: info})
			ar.ptrs = append(ar.ptrs, &ar.backing[len(ar.backing)-1])
		}
		statAttrsSeen.Add(uint64(count))
		// Capped capacity: appending to a member's attribute list must
		// copy out of the arena, never overwrite the next member's slots.
		return ar.ptrs[start:len(ar.ptrs):len(ar.ptrs)], nil
	}
	backing := make([]Attribute, count)
	attrs := make([]*Attribute, count)
	for i := 0; i < count; i++ {
		nameIdx := r.u2()
		length := int(r.u4())
		info := r.bytes(length)
		if r.err != nil {
			return nil, r.err
		}
		backing[i] = Attribute{NameIndex: nameIdx, Info: info}
		attrs[i] = &backing[i]
	}
	statAttrsSeen.Add(uint64(count))
	return attrs, nil
}

// validateModifiedUTF8 checks that b is well-formed modified UTF-8
// without building the decoded string — the alloc-free twin of
// decodeModifiedUTF8, run at the parse gate so hostile input still fails
// early while well-formed strings decode lazily. ascii reports that b is
// plain ASCII, i.e. already the bytes of the string it decodes to.
func validateModifiedUTF8(b []byte) (ok, ascii bool) {
	ascii = true
	// Names and descriptors are nearly always plain ASCII: take eight
	// bytes at a time while none has its high bit set or is NUL.
	i := 0
	for ; i+8 <= len(b); i += 8 {
		const hi, lo = 0x8080808080808080, 0x0101010101010101
		if w := binary.LittleEndian.Uint64(b[i:]); w&hi != 0 || (w-lo)&^w&hi != 0 {
			break
		}
	}
	for i < len(b) {
		c := b[i]
		switch {
		case c == 0 || c >= 0xF0:
			return false, false
		case c < 0x80:
			i++
			continue
		case c&0xE0 == 0xC0:
			if i+1 >= len(b) || b[i+1]&0xC0 != 0x80 {
				return false, false
			}
			i += 2
		case c&0xF0 == 0xE0:
			if i+2 >= len(b) || b[i+1]&0xC0 != 0x80 || b[i+2]&0xC0 != 0x80 {
				return false, false
			}
			// Mirror the decoder's CESU-8 surrogate-pair handling exactly,
			// including which bytes it consumes, so validate and decode
			// accept precisely the same inputs.
			r := rune(c&0x0F)<<12 | rune(b[i+1]&0x3F)<<6 | rune(b[i+2]&0x3F)
			if r >= 0xD800 && r <= 0xDBFF && i+5 < len(b) && b[i+3]&0xF0 == 0xE0 {
				r2 := rune(b[i+3]&0x0F)<<12 | rune(b[i+4]&0x3F)<<6 | rune(b[i+5]&0x3F)
				if r2 >= 0xDC00 && r2 <= 0xDFFF {
					i += 6
					ascii = false
					continue
				}
			}
			i += 3
		default:
			return false, false
		}
		ascii = false
	}
	return true, ascii
}

// decodeModifiedUTF8 decodes the JVM's "modified UTF-8": NUL is encoded as
// 0xC0 0x80, supplementary characters as CESU-8 surrogate pairs, and no
// byte may be 0x00 or in 0xF0..0xFF.
func decodeModifiedUTF8(b []byte) (string, bool) {
	// Fast path: plain ASCII without NUL.
	ascii := true
	for _, c := range b {
		if c == 0 || c >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		return string(b), true
	}
	out := make([]rune, 0, len(b))
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == 0 || c >= 0xF0:
			return "", false
		case c < 0x80:
			out = append(out, rune(c))
			i++
		case c&0xE0 == 0xC0:
			if i+1 >= len(b) || b[i+1]&0xC0 != 0x80 {
				return "", false
			}
			out = append(out, rune(c&0x1F)<<6|rune(b[i+1]&0x3F))
			i += 2
		case c&0xF0 == 0xE0:
			if i+2 >= len(b) || b[i+1]&0xC0 != 0x80 || b[i+2]&0xC0 != 0x80 {
				return "", false
			}
			r := rune(c&0x0F)<<12 | rune(b[i+1]&0x3F)<<6 | rune(b[i+2]&0x3F)
			// Recombine CESU-8 surrogate pairs into one code point.
			if r >= 0xD800 && r <= 0xDBFF && i+5 < len(b) &&
				b[i+3]&0xF0 == 0xE0 {
				r2 := rune(b[i+3]&0x0F)<<12 | rune(b[i+4]&0x3F)<<6 | rune(b[i+5]&0x3F)
				if r2 >= 0xDC00 && r2 <= 0xDFFF {
					out = append(out, ((r-0xD800)<<10|(r2-0xDC00))+0x10000)
					i += 6
					continue
				}
			}
			out = append(out, r)
			i += 3
		default:
			return "", false
		}
	}
	return string(out), true
}

// appendModifiedUTF8 appends the modified-UTF8 encoding of s to out (the
// inverse of decodeModifiedUTF8). Appending in place lets the encoder
// write every Utf8 constant straight into its output buffer instead of
// allocating a scratch slice per constant.
func appendModifiedUTF8(out []byte, s string) []byte {
	// Fast path: plain ASCII without NUL copies straight through.
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] == 0 || s[i] >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		return append(out, s...)
	}
	for _, r := range s {
		switch {
		case r == 0:
			out = append(out, 0xC0, 0x80)
		case r < 0x80:
			out = append(out, byte(r))
		case r < 0x800:
			out = append(out, 0xC0|byte(r>>6), 0x80|byte(r&0x3F))
		case r < 0x10000:
			out = append(out, 0xE0|byte(r>>12), 0x80|byte(r>>6&0x3F), 0x80|byte(r&0x3F))
		case r <= utf8.MaxRune:
			// CESU-8 surrogate pair encoding.
			r -= 0x10000
			hi := 0xD800 + (r >> 10)
			lo := 0xDC00 + (r & 0x3FF)
			out = append(out,
				0xE0|byte(hi>>12), 0x80|byte(hi>>6&0x3F), 0x80|byte(hi&0x3F),
				0xE0|byte(lo>>12), 0x80|byte(lo>>6&0x3F), 0x80|byte(lo&0x3F))
		}
	}
	return out
}
