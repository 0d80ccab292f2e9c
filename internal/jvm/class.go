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

	// links is the method's side table: one slot per instruction whose
	// operand names the constant pool (ldc*, field access, invocation,
	// new, anewarray, multianewarray, checkcast, instanceof). prepare
	// rewrites such an instruction's Index to its slot, and the slot keeps
	// the constant-pool index. The VM is single-threaded, so a slot is
	// filled in place.
	links []link

	Native NativeFunc // non-nil for runtime-provided methods
}

type rtHandler struct {
	startIdx, endIdx, handlerIdx int // instruction index range [start, end)
	catchType                    string
	catch                        *Class // catchType, once it has resolved
}

// link is what one instruction's constant-pool operand resolved to. The
// instruction's first successful execution fills it; a resolution that
// fails leaves it as it was, so every later execution fails the same
// way. Class initialization is not part of a link: it is checked on
// every execution.
type link struct {
	cp     uint16 // the constant-pool index the instruction named
	linked bool   // val holds the constant (ldc, ldc_w, ldc2_w)
	val    Value
	class  *Class // new, multianewarray, checkcast, instanceof; anewarray's array class
	field  *fieldSite
	call   *invokeSite
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
// internal VM error. args lives on the thread stack and is valid only
// until the function returns: a native copies out the Values it keeps,
// never the slice.
type NativeFunc func(t *Thread, args []Value) (Value, *Object, error)

// Key returns the lookup key "name desc".
func (m *Method) Key() string { return m.Name + " " + m.Desc }

func (m *Method) String() string { return m.Class.Name + "." + m.Name + m.Desc }

// prepare decodes bytecode, converts the exception table to
// instruction-index form and gives every instruction that names the
// constant pool its slot in links; done lazily on first invocation. A
// method that fails to prepare keeps none of it and fails again on the
// next invocation.
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
	endIdx := func(pc uint16) (int, bool) {
		if int(pc) == len(m.Code.Bytecode) {
			return len(insts), true
		}
		return pcIdx.At(int(pc))
	}
	var handlers []rtHandler
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
		handlers = append(handlers, rtHandler{startIdx: si, endIdx: ei, handlerIdx: hi, catchType: ct})
	}
	n := 0
	for i := range insts {
		if linksOperand(insts[i].Op) {
			n++
		}
	}
	var links []link
	if n > 0 {
		links = make([]link, 0, n)
		for i := range insts {
			if linksOperand(insts[i].Op) {
				links = append(links, link{cp: insts[i].Index})
				insts[i].Index = uint16(len(links) - 1)
			}
		}
	}
	m.insts, m.handlers, m.links = insts, handlers, links
	m.prepared = true
	return nil
}

// linksOperand reports whether op's Index names the constant pool and
// the instruction gets a slot in Method.links.
func linksOperand(op bytecode.Opcode) bool {
	switch op {
	case bytecode.Ldc, bytecode.LdcW, bytecode.Ldc2W,
		bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield,
		bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface,
		bytecode.New, bytecode.Anewarray, bytecode.Multianewarray, bytecode.Checkcast, bytecode.Instanceof:
		return true
	}
	return false
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
