package jvm

// The DVM client runtime manages its Java heap as an intrusive linked
// list of objects and reclaims unreachable ones with a straightforward
// stop-the-world mark-sweep collector. (The underlying Go GC frees the
// memory once an object leaves the list; what this collector provides is
// the Java-level reachability semantics, heap accounting, and the GC
// statistics the evaluation reports.)

// heapAdd links a freshly allocated object into the heap and triggers a
// collection when the live-object threshold is exceeded.
func (vm *VM) heapAdd(o *Object) {
	vm.hashCounter++
	o.hash = vm.hashCounter
	o.next = vm.heapHead
	vm.heapHead = o
	vm.heapCount++
	vm.Stats.ObjectsAllocated++
	if vm.heapCount >= vm.gcThreshold && vm.bootstrapped {
		vm.GC()
	}
}

// Pin marks an object as a permanent GC root (interned strings, objects
// held by native code across calls).
func (vm *VM) Pin(o *Object) {
	if o != nil {
		vm.pinned[o] = struct{}{}
	}
}

// GC runs a full mark-sweep collection and returns the number of objects
// reclaimed.
func (vm *VM) GC() int {
	vm.Stats.GCRuns++

	var stack []*Object
	mark := func(o *Object) {
		if o != nil && !o.mark {
			o.mark = true
			stack = append(stack, o)
		}
	}

	// Roots: pinned objects, class statics, and every frame of the
	// (single) thread.
	for o := range vm.pinned {
		mark(o)
	}
	for _, c := range vm.classes {
		for _, v := range c.statics {
			if v.Kind == KindRef {
				mark(v.R)
			}
		}
	}
	if t := vm.mainThread; t != nil {
		for _, f := range t.frames {
			for _, v := range f.locals {
				if v.Kind == KindRef {
					mark(v.R)
				}
			}
			for i := 0; i < f.sp; i++ {
				if f.stack[i].Kind == KindRef {
					mark(f.stack[i].R)
				}
			}
		}
		mark(t.pendingThrow)
	}

	// Trace.
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range o.Fields {
			if v.Kind == KindRef {
				mark(v.R)
			}
		}
		for _, v := range o.Elems {
			if v.Kind == KindRef {
				mark(v.R)
			}
		}
		switch n := o.Native.(type) {
		case *Object:
			mark(n)
		case *javaHashtable:
			for k, v := range n.m {
				if v.Kind == KindRef {
					mark(v.R)
				}
				mark(n.refs[k])
			}
		case *javaVector:
			for _, v := range n.elems {
				if v.Kind == KindRef {
					mark(v.R)
				}
			}
		}
	}

	// Sweep.
	collected := 0
	var head *Object
	var tail *Object
	for o := vm.heapHead; o != nil; {
		next := o.next
		if o.mark {
			o.mark = false
			o.next = nil
			if head == nil {
				head = o
				tail = o
			} else {
				tail.next = o
				tail = o
			}
		} else {
			o.next = nil
			collected++
		}
		o = next
	}
	vm.heapHead = head
	vm.heapCount -= collected
	vm.Stats.ObjectsCollected += int64(collected)
	// Grow the threshold if the live set is large so GC frequency stays
	// proportional to allocation, not live-set size.
	if vm.heapCount*2 > vm.gcThreshold {
		vm.gcThreshold = vm.heapCount * 2
	}
	return collected
}
