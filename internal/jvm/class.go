package jvm

import (
	"fmt"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// Class is a loaded, linked runtime class.
type Class struct {
	Name       string
	File       *classfile.ClassFile // nil for array classes
	Super      *Class
	Interfaces []*Class
	Flags      uint16

	// Instance field layout: superclass slots first.
	instanceSlots int
	slotDescs     []string          // descriptor per instance slot (for zeroing)
	fieldSlot     map[string]int    // "name desc" -> slot (declared here only)
	fieldDesc     map[string]string // name -> desc (declared here)

	// Statics.
	statics     []Value
	staticSlot  map[string]int
	methods     map[string]*Method // "name desc" -> declared method
	methodOrder []*Method

	// Array classes.
	IsArray  bool
	ElemDesc string // element type descriptor for arrays
	Elem     *Class // element class for reference arrays, nil for primitives

	vm          *VM
	initState   int // 0 = uninitialized, 1 = initializing, 2 = done
	initPending bool
}

// Method is a linked method.
type Method struct {
	Class *Class
	Name  string
	Desc  string
	Flags uint16
	MT    bytecode.MethodType

	Code     *classfile.Code
	insts    []bytecode.Inst
	handlers []rtHandler
	prepared bool

	// Resolution caches, built lazily per call site (the VM is
	// single-threaded). invokeSites carries an inline cache for virtual
	// dispatch.
	invokeSites map[uint16]*invokeSite
	fieldSites  map[uint16]*fieldSite

	Native NativeFunc // non-nil for runtime-provided methods
}

type rtHandler struct {
	startIdx, endIdx, handlerIdx int // instruction index range [start, end)
	catchType                    string
}

// invokeSite caches the resolution of one invocation instruction.
type invokeSite struct {
	ref      classfile.MemberRef
	retSlots int
	hasRecv  bool
	total    int // operand slots consumed (args + receiver)
	owner    *Class
	resolved *Method // static resolution (invokestatic/invokespecial)
	// Monomorphic inline cache for invokevirtual/invokeinterface.
	lastRecv   *Class
	lastTarget *Method
}

// fieldSite caches the resolution of one field access instruction.
type fieldSite struct {
	ref    classfile.MemberRef
	wide   bool
	static bool
	holder *Class // declaring class (statics)
	slot   int
}

// NativeFunc implements a method in Go. It returns the method result (for
// non-void methods), a thrown Java exception object (nil if none), or an
// internal VM error.
type NativeFunc func(t *Thread, args []Value) (Value, *Object, error)

// Key returns the lookup key "name desc".
func (m *Method) Key() string { return m.Name + " " + m.Desc }

func (m *Method) String() string { return m.Class.Name + "." + m.Name + m.Desc }

// prepare decodes bytecode and converts the exception table to
// instruction-index form; done lazily on first invocation.
func (m *Method) prepare() error {
	if m.prepared || m.Code == nil {
		m.prepared = true
		return nil
	}
	// The DVM client runtime accepts its own native format (extension
	// opcodes emitted by the centralized compilation service) alongside
	// standard bytecode.
	insts, pcIdx, err := bytecode.DecodeWithIndex(nil, m.Code.Bytecode, true)
	if err != nil {
		return fmt.Errorf("jvm: %s: %w", m, err)
	}
	m.insts = insts
	endIdx := func(pc uint16) (int, bool) {
		if int(pc) == len(m.Code.Bytecode) {
			return len(insts), true
		}
		return pcIdx.At(int(pc))
	}
	for _, h := range m.Code.Handlers {
		si, ok1 := pcIdx.At(int(h.StartPC))
		ei, ok2 := endIdx(h.EndPC)
		hi, ok3 := pcIdx.At(int(h.HandlerPC))
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("jvm: %s: exception table entry not on instruction boundary", m)
		}
		var ct string
		if h.CatchType != 0 {
			name, err := m.Class.File.Pool.ClassName(h.CatchType)
			if err != nil {
				return fmt.Errorf("jvm: %s: bad catch type: %w", m, err)
			}
			ct = name
		}
		m.handlers = append(m.handlers, rtHandler{startIdx: si, endIdx: ei, handlerIdx: hi, catchType: ct})
	}
	m.prepared = true
	return nil
}

// DeclaredMethod returns the method declared directly on c, or nil.
func (c *Class) DeclaredMethod(name, desc string) *Method {
	return c.methods[name+" "+desc]
}

// LookupMethod resolves a method by walking the superclass chain and then
// superinterfaces, as invokevirtual/invokeinterface resolution does.
func (c *Class) LookupMethod(name, desc string) *Method {
	key := name + " " + desc
	for k := c; k != nil; k = k.Super {
		if m := k.methods[key]; m != nil {
			return m
		}
	}
	// Interface default-free era: search interfaces for abstract declarations
	// (useful for reflective existence checks only).
	var walk func(k *Class) *Method
	walk = func(k *Class) *Method {
		if k == nil {
			return nil
		}
		if m := k.methods[key]; m != nil {
			return m
		}
		for _, i := range k.Interfaces {
			if m := walk(i); m != nil {
				return m
			}
		}
		return walk(k.Super)
	}
	return walk(c)
}

// Methods returns the methods declared on c in declaration order.
func (c *Class) Methods() []*Method { return c.methodOrder }

// FieldSlot resolves an instance field to its slot by walking the
// superclass chain. The boolean result reports whether it was found.
func (c *Class) FieldSlot(name, desc string) (int, bool) {
	key := name + " " + desc
	for k := c; k != nil; k = k.Super {
		if s, ok := k.fieldSlot[key]; ok {
			return s, true
		}
	}
	return 0, false
}

// StaticSlot resolves a static field to (owning class, slot).
func (c *Class) StaticSlot(name, desc string) (*Class, int, bool) {
	key := name + " " + desc
	for k := c; k != nil; k = k.Super {
		if s, ok := k.staticSlot[key]; ok {
			return k, s, true
		}
	}
	return nil, 0, false
}

// GetStatic reads a static slot on this exact class.
func (c *Class) GetStatic(slot int) Value { return c.statics[slot] }

// SetStatic writes a static slot on this exact class.
func (c *Class) SetStatic(slot int, v Value) { c.statics[slot] = v }

// HasField reports whether the class or a superclass declares the named
// field with the given descriptor (instance or static). Used by the
// RTVerifier dynamic link checks.
func (c *Class) HasField(name, desc string) bool {
	if _, ok := c.FieldSlot(name, desc); ok {
		return true
	}
	_, _, ok := c.StaticSlot(name, desc)
	return ok
}

// AssignableTo implements the subtype relation used by checkcast,
// instanceof, aastore checks, and exception handler matching.
func (c *Class) AssignableTo(t *Class) bool {
	if c == t {
		return true
	}
	if t.Name == "java/lang/Object" {
		return true
	}
	if c.IsArray {
		if !t.IsArray {
			return false
		}
		if c.ElemDesc == t.ElemDesc {
			return true
		}
		// Covariance for reference element types.
		if c.Elem != nil && t.Elem != nil {
			return c.Elem.AssignableTo(t.Elem)
		}
		return false
	}
	if t.Flags&classfile.AccInterface != 0 {
		return c.implementsIface(t)
	}
	for k := c.Super; k != nil; k = k.Super {
		if k == t {
			return true
		}
	}
	return false
}

func (c *Class) implementsIface(t *Class) bool {
	for k := c; k != nil; k = k.Super {
		for _, i := range k.Interfaces {
			if i == t || i.implementsIface(t) {
				return true
			}
		}
	}
	return false
}

func (c *Class) String() string { return c.Name }

// arrayClassNameFor returns the runtime name of an array class with the
// given element descriptor, e.g. "[I" or "[Ljava/lang/String;".
func arrayClassNameFor(elemDesc string) string {
	return "[" + elemDesc
}

// elemDescOfArrayName extracts the element descriptor from an array class
// name ("[I" -> "I").
func elemDescOfArrayName(name string) (string, bool) {
	if !strings.HasPrefix(name, "[") {
		return "", false
	}
	return name[1:], true
}
