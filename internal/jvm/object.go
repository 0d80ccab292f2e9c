package jvm

// Object is a heap object: a class instance or an array. Instance fields
// live in Fields, indexed by the slot offsets assigned at class layout
// time (superclass fields first). Arrays keep their elements in Elems.
// Native carries a Go-side payload for runtime-implemented classes
// (strings, files, string buffers, hash tables).
type Object struct {
	Class  *Class
	Fields []Value
	Elems  []Value // non-nil iff Class.IsArray
	Native any

	// identity hash (Object.hashCode), assigned at allocation
	hash int32

	// gc bookkeeping
	mark bool
	next *Object
}

// IdentityHash returns the object's identity hash code.
func (o *Object) IdentityHash() int32 { return o.hash }

// NewInstance allocates an instance of c with zeroed fields and registers
// it with the VM heap. It does not run any constructor.
func (vm *VM) NewInstance(c *Class) *Object {
	o := &Object{Class: c, Fields: make([]Value, c.instanceSlots)}
	for i, d := range c.slotDescs {
		o.Fields[i] = zeroValueFor(d)
	}
	vm.heapAdd(o)
	return o
}

// NewArray allocates an array object of the given array class and length.
func (vm *VM) NewArray(c *Class, length int) *Object {
	elems := make([]Value, length)
	zero := zeroValueFor(c.ElemDesc)
	for i := range elems {
		elems[i] = zero
	}
	o := &Object{Class: c, Elems: elems}
	vm.heapAdd(o)
	return o
}

// Len returns the array length (0 for non-arrays).
func (o *Object) Len() int {
	if o == nil {
		return 0
	}
	return len(o.Elems)
}

// GetField reads an instance field by slot.
func (o *Object) GetField(slot int) Value { return o.Fields[slot] }

// SetField writes an instance field by slot.
func (o *Object) SetField(slot int, v Value) { o.Fields[slot] = v }
