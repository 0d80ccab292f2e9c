package classfile

import "sync"

// The proxy parses and re-encodes a classfile on every cache miss; the
// constant pool's entry slice, string and resolved-reference side tables
// and interning table are the largest recurring allocations on that path.
// A sync.Pool recycles them between Parse/Encode cycles. Only the
// containers are reused — the strings they referenced are immutable Go
// strings that remain valid in whatever results (verifier output, audit
// records) still hold them.
var poolScratch = sync.Pool{New: func() any { return new(ConstPool) }}

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

// Release returns the class's constant-pool scratch for reuse by later
// parses. The caller promises that nothing retains a reference to the
// ClassFile, its pool, its Constants, or anything drawn from the pool's
// Scratch (decoded method bodies, their instruction lists and PC indexes,
// rewritten Code payloads); retained strings are fine (they are immutable
// and are not recycled). The rewrite pipeline calls this on every exit
// once it is done with a class, whether or not it produced one.
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
	p.recent, p.nextRecent = [4]recentRef{}, 0
	p.err = nil
	if p.scratch != nil {
		p.scratch.Reset()
	}
	poolScratch.Put(p)
}
