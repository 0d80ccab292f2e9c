package bytecode

import (
	"sync"
	"sync/atomic"

	"dvm/internal/classfile"
)

// The static service re-parses the same handful of descriptors on every
// resolve: phase-2/3 verification, MaxStack effects, and the rewriting
// services all call ParseType/ParseMethodType with strings drawn from a
// small working set (a proxy serving one organization sees the same
// library signatures over and over). A small memoization cache turns
// those re-parses into map hits with zero allocation.
//
// The cache is two-generation ("current" and "previous" maps): inserts
// go to current, and when current fills up it becomes previous and a
// fresh current starts. Lookups that hit previous are promoted. This
// bounds memory at roughly 2×descCacheLimit entries per kind while
// keeping the hot working set resident — hostile classfiles full of
// one-shot descriptors can only cycle the generations, never grow the
// maps without bound.
//
// Cached values are shared between callers, which is safe because Type
// and MethodType are treated as immutable everywhere: nothing in the
// repo mutates Params/Elem after parsing (descriptor strings round-trip
// through String() instead).
//
// In front of the shared cache sits a per-class one that needs no lock:
// TypeAt, MethodTypeAt and the Ref* forms name a descriptor by its
// constant-pool index and remember the parsed form, with the slot counts
// StackEffect wants, on the pool itself (classfile.Descriptor). A class's
// verification and rewriting therefore reach the shared maps at most
// once per descriptor constant, however many instructions use it and
// however often MaxStack walks them.

const descCacheLimit = 4096

type descCache[V any] struct {
	mu   sync.RWMutex
	cur  map[string]V
	prev map[string]V
}

func (c *descCache[V]) get(key string) (V, bool) {
	c.mu.RLock()
	if c.cur != nil {
		if v, ok := c.cur[key]; ok {
			c.mu.RUnlock()
			return v, true
		}
	}
	if c.prev != nil {
		if v, ok := c.prev[key]; ok {
			c.mu.RUnlock()
			// Promote so the entry survives the next rotation.
			c.put(key, v)
			return v, true
		}
	}
	c.mu.RUnlock()
	var zero V
	return zero, false
}

func (c *descCache[V]) put(key string, v V) {
	c.mu.Lock()
	if c.cur == nil {
		c.cur = make(map[string]V, 64)
	}
	if len(c.cur) >= descCacheLimit {
		c.prev = c.cur
		c.cur = make(map[string]V, 64)
	}
	c.cur[key] = v
	c.mu.Unlock()
}

func (c *descCache[V]) reset() {
	c.mu.Lock()
	c.cur, c.prev = nil, nil
	c.mu.Unlock()
}

var (
	typeCache   descCache[*Type]
	methodCache descCache[*MethodType]

	descHits   atomic.Int64
	descMisses atomic.Int64
)

// DescriptorCacheStats reports the cumulative hit/miss counts of the
// descriptor memoization cache, for telemetry gauges.
func DescriptorCacheStats() (hits, misses int64) {
	return descHits.Load(), descMisses.Load()
}

// TypeAt parses the Utf8 constant at idx of pool as a field descriptor,
// reporting what Utf8 or ParseType would. A failure is not remembered.
func TypeAt(pool *classfile.ConstPool, idx uint16) (Type, error) {
	t, _, err := fieldDescriptor(pool, idx)
	if err != nil {
		return Type{}, err
	}
	return *t, nil
}

// MethodTypeAt is TypeAt for a method descriptor.
func MethodTypeAt(pool *classfile.ConstPool, idx uint16) (MethodType, error) {
	mt, _, err := methodDescriptor(pool, idx)
	if err != nil {
		return MethodType{}, err
	}
	return *mt, nil
}

// RefType returns the parsed descriptor of the Fieldref at idx, failing
// as pool.Ref and then ParseType would.
func RefType(pool *classfile.ConstPool, idx uint16) (Type, error) {
	d, err := pool.RefDescriptor(idx)
	if err != nil {
		return Type{}, err
	}
	return TypeAt(pool, d)
}

// RefMethodType is RefType for a Methodref or InterfaceMethodref.
func RefMethodType(pool *classfile.ConstPool, idx uint16) (MethodType, error) {
	d, err := pool.RefDescriptor(idx)
	if err != nil {
		return MethodType{}, err
	}
	return MethodTypeAt(pool, d)
}

func fieldDescriptor(pool *classfile.ConstPool, idx uint16) (*Type, classfile.Descriptor, error) {
	d := pool.Descriptor(idx)
	if t, ok := d.Parsed.(*Type); ok {
		return t, d, nil
	}
	s, err := pool.Utf8(idx)
	if err != nil {
		return nil, d, err
	}
	t, err := sharedType(s)
	if err != nil {
		return nil, d, err
	}
	d = classfile.Descriptor{Parsed: t, Slots: uint8(t.Slots())}
	pool.SetDescriptor(idx, d)
	return t, d, nil
}

func methodDescriptor(pool *classfile.ConstPool, idx uint16) (*MethodType, classfile.Descriptor, error) {
	d := pool.Descriptor(idx)
	if mt, ok := d.Parsed.(*MethodType); ok {
		return mt, d, nil
	}
	s, err := pool.Utf8(idx)
	if err != nil {
		return nil, d, err
	}
	mt, err := sharedMethodType(s)
	if err != nil {
		return nil, d, err
	}
	d = classfile.Descriptor{Parsed: mt, ParamSlots: uint16(mt.ParamSlots()), Slots: uint8(mt.Ret.Slots())}
	pool.SetDescriptor(idx, d)
	return mt, d, nil
}
