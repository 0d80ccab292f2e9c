package classfile

import (
	"sync"
	"unsafe"

	"dvm/internal/slab"
)

// The proxy parses and re-encodes a classfile on every cache miss; the
// constant pool's entry slice, string and resolved-reference side tables,
// its interning table and the class's member and attribute tables are the
// largest recurring allocations on that path. A sync.Pool recycles them
// between Parse/Encode cycles. Only the containers are reused — the
// strings they referenced are immutable Go strings that remain valid in
// whatever results (verifier output, audit records) still hold them.
var poolScratch = sync.Pool{New: func() any { return new(ConstPool) }}

// store is the storage of a class's tables: the members and the lists that
// point at them, the attributes and their lists, the interface list. Parse
// carves them from it, and so do AddField, AddMethod, AddAttribute and
// SetCodeInfo for what a filter adds. It rides the constant pool, so
// Release recycles it with the pool and a warm Parse allocates its
// ClassFile and nothing else. A class built with NewConstPool, or parsed
// and never released (a client's), simply keeps its store.
type store struct {
	members    slab.Slab[Member]
	memberPtrs slab.Slab[*Member]
	attrs      slab.Slab[Attribute]
	attrPtrs   slab.Slab[*Attribute]
	ifaces     slab.Slab[uint16]
}

// newMember returns a member made rather than parsed: it has no byte range
// to splice, so Encode serializes it.
func (s *store) newMember(access, name, desc uint16) *Member {
	m := &s.members.Take(1)[0]
	*m = Member{AccessFlags: access, NameIndex: name, DescriptorIndex: desc}
	return m
}

// appendAttr returns list with a new attribute appended. The list grows
// where it lies when it is the newest the store handed out, as a class's
// own attribute list is at the end of Parse; otherwise it moves.
func (s *store) appendAttr(list []*Attribute, name uint16, info []byte) []*Attribute {
	a := &s.attrs.Take(1)[0]
	*a = Attribute{NameIndex: name, Info: info}
	return append(s.attrPtrs.Grow(list, 1), a)
}

// What a recycled pool keeps, in elements. A class may declare 65535
// members with as many attributes each, and a pool may hold 65535
// constants; the bounds admit a class over twenty times the largest of the
// 905-class benchmark corpus (186 constants, 16 members, 14 attributes),
// so that an ordinary class finds its storage warm and an outsized one
// does not stay pinned in the sync.Pool behind every later class.
const (
	retainMembers = 512
	retainAttrs   = 1 << 10
	retainIfaces  = 256
	retainEntries = 4 << 10
	retainIndex   = 16 << 10
)

// What Release writes, with slab.PoisonOnReset on, over the storage it
// recycles: an index no pool can hold (a pool's largest count is 0xFFFF,
// so its highest index is 0xFFFE), and a payload no class carried.
const (
	poisonIndex = 0xFFFF
	poisonInfo  = "dvm: attribute of a released class"
)

var (
	poisonMember = Member{AccessFlags: poisonIndex, NameIndex: poisonIndex, DescriptorIndex: poisonIndex, spanStart: -1, spanEnd: -1}
	poisonAttr   = Attribute{NameIndex: poisonIndex, Info: []byte(poisonInfo)}
)

// reset ends the store's service to one class. The members and
// attributes are zeroed so that the recycled slabs keep nothing of the
// dead class alive, or, with slab.PoisonOnReset on, overwritten with
// values no parser produces; the lists of pointers are zeroed either way.
func (s *store) reset() {
	if slab.Poisoning() {
		slab.Fill(s.members.Used(), poisonMember)
		slab.Fill(s.attrs.Used(), poisonAttr)
		slab.Fill(s.ifaces.Used(), poisonIndex)
	} else {
		clear(s.members.Used())
		clear(s.attrs.Used())
	}
	clear(s.memberPtrs.Used())
	clear(s.attrPtrs.Used())
	s.members.Reset(retainMembers)
	s.memberPtrs.Reset(retainMembers)
	s.attrs.Reset(retainAttrs)
	s.attrPtrs.Reset(retainAttrs)
	s.ifaces.Reset(retainIfaces)
}

// newParsePool returns a ConstPool ready for parsing, reusing recycled
// scratch when available. count is the declared constant_pool_count,
// used as a size hint for the entry slice and — every entry may be a Utf8
// — the string table, so that what a parse allocates is bounded by the
// hint rather than by how the slices happen to grow. Release left
// everything else empty.
func newParsePool(count int) *ConstPool {
	p := poolScratch.Get().(*ConstPool)
	if cap(p.entries) < count {
		p.entries = make([]entry, 1, count)
	} else {
		p.entries = append(p.entries[:0], entry{})
	}
	if cap(p.strs) < count {
		p.strs = make([]utf8Entry, 0, count)
	}
	return p
}

// Release returns the class's constant pool, with the store of its
// members, attributes and interfaces and the scratch of the layers above
// (ConstPool.Scratch), for reuse by later parses. The caller promises
// that nothing retains a reference to the ClassFile, its pool, its
// Constants, its Fields, Methods, Attributes or Interfaces or anything
// they point at (a *Member, an *Attribute, a member's attribute list), or
// anything drawn from the pool's Scratch (decoded method bodies, their
// instruction lists and PC indexes, rewritten Code payloads); retained
// strings are fine (they are immutable and are not recycled), and so are
// the bytes of an attribute payload parsed from a buffer the caller owns.
// With slab.PoisonOnReset on, all of that storage reads as values no
// parser or decoder produces once Release returns. The rewrite pipeline
// calls this on every exit once it is done with a class, whether or not
// it produced one.
func (cf *ClassFile) Release() {
	p := cf.Pool
	if p == nil {
		return
	}
	cf.Pool = nil
	cf.parsedPool = nil
	cf.raw = nil
	for _, m := range cf.Methods {
		m.decoded = nil // it describes bytes and pool indices that are gone
	}
	cf.Interfaces, cf.Fields, cf.Methods, cf.Attributes = nil, nil, nil, nil
	p.recycle()
}

// recycle empties the pool and returns it to poolScratch.
func (p *ConstPool) recycle() {
	// Empty the recycled containers: the next class parsed into them must
	// see none of this one's resolved references or interned constants,
	// and the old class's strings and input buffer must be collectable.
	// Entries hold no pointers and the interning table is cleared when it
	// is next built, so truncating those two is enough.
	p.entries = p.entries[:0]
	clear(p.strs)
	p.strs = p.strs[:0]
	clear(p.refs)
	p.refs = p.refs[:0]
	p.index = p.index[:0]
	if cap(p.entries) > retainEntries {
		p.entries = nil
	}
	if cap(p.strs) > retainEntries {
		p.strs = nil
	}
	if cap(p.refs) > retainEntries {
		p.refs = nil
	}
	if cap(p.index) > retainIndex {
		p.index = nil
	}
	p.recent, p.nextRecent = [4]recentRef{}, 0
	p.err = nil
	p.store.reset()
	if p.scratch != nil {
		p.scratch.Reset()
	}
	poolScratch.Put(p)
}

// Retained reports the bytes the pool holds on to for the next class,
// its scratch apart (see ConstPool.Scratch), and the most a recycled pool
// may hold.
func (p *ConstPool) Retained() (held, bound int) {
	s := &p.store
	held = sliceBytes(p.entries) + sliceBytes(p.strs) + sliceBytes(p.refs) + sliceBytes(p.index) +
		s.members.Bytes() + s.memberPtrs.Bytes() + s.attrs.Bytes() + s.attrPtrs.Bytes() + s.ifaces.Bytes()
	const ptr = unsafe.Sizeof(uintptr(0))
	bound = retainEntries*int(unsafe.Sizeof(entry{})+unsafe.Sizeof(utf8Entry{})+unsafe.Sizeof(refMemo{})) +
		2*retainIndex + retainMembers*int(unsafe.Sizeof(Member{})+ptr) +
		retainAttrs*int(unsafe.Sizeof(Attribute{})+ptr) + 2*retainIfaces
	return held, bound
}

// sliceBytes is the size of s's backing array.
func sliceBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
