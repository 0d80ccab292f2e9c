package classfile

import "unsafe"

// Hooks for the external tests (package classfile_test, which may import
// the workload generator where an in-package test may not).

// StoredEntrySize is the size of the pool's stored form of a constant.
const StoredEntrySize = unsafe.Sizeof(entry{})

// EncodeFull serializes the class by the canonical path, as if it had not
// been parsed from a buffer Encode could splice from.
func (cf *ClassFile) EncodeFull() ([]byte, error) {
	full := *cf
	full.raw = nil
	return full.Encode()
}

// PoolEntryOffsets returns the offset in the parsed buffer of every
// constant-pool entry, then of the first byte after the pool.
func (cf *ClassFile) PoolEntryOffsets() []int {
	var offs []int
	for i := 1; i < cf.parsedEntries; i++ {
		if cf.Pool.entries[i].tag != 0 {
			offs = append(offs, cf.poolEnd-cf.Pool.entriesSize(i))
		}
	}
	return append(offs, cf.poolEnd)
}
