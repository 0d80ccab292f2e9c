package classfile

import "sync"

// The proxy parses and re-encodes a classfile on every cache miss; the
// constant pool's entry slice and interning map are the two largest
// recurring allocations on that path. A sync.Pool recycles them between
// Parse/Encode cycles. Only the containers are reused — the strings they
// referenced are immutable Go strings that remain valid in whatever
// results (verifier output, audit records) still hold them.
var poolScratch = sync.Pool{New: func() any { return new(ConstPool) }}

// newParsePool returns a ConstPool ready for parsing, reusing recycled
// scratch when available. count is the declared constant_pool_count,
// used as a size hint for the entry slice and interning map.
func newParsePool(count int) *ConstPool {
	p := poolScratch.Get().(*ConstPool)
	if cap(p.entries) < count {
		p.entries = make([]Constant, 1, count)
	} else {
		p.entries = append(p.entries[:0], Constant{})
	}
	if p.index == nil {
		p.index = make(map[poolKey]uint16, count)
	}
	p.indexed = false
	p.frozen = false
	return p
}

// Release returns the class's constant-pool scratch for reuse by later
// parses. The caller promises that nothing retains a reference to the
// ClassFile, its pool, or its Constants; retained strings are fine (they
// are immutable and are not recycled). The rewrite pipeline calls this
// after encoding a transformed class.
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
	// Drop references held by the recycled containers so the old class's
	// strings, entries, and input buffer can be collected.
	clear(p.entries)
	p.entries = p.entries[:0]
	clear(p.index)
	p.indexed = false
	p.frozen = false
	poolScratch.Put(p)
}
