package jvm

import (
	"fmt"
	"io"
	"sort"

	"dvm/internal/classfile"
)

// ClassLoader supplies classfile bytes by internal class name. In a DVM
// deployment the loader is backed by the network proxy; tests and the
// monolithic baseline use in-memory loaders.
type ClassLoader interface {
	Load(name string) ([]byte, error)
}

// MapLoader serves classes from an in-memory map.
type MapLoader map[string][]byte

// Load implements ClassLoader.
func (m MapLoader) Load(name string) ([]byte, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("jvm: class %s not found", name)
	}
	return b, nil
}

// FuncLoader adapts a function to the ClassLoader interface.
type FuncLoader func(name string) ([]byte, error)

// Load implements ClassLoader.
func (f FuncLoader) Load(name string) ([]byte, error) { return f(name) }

// LoadHook observes every class definition; the monolithic client's local
// verifier and the client-side profiler attach here.
type LoadHook func(vm *VM, name string, data []byte) error

// Stats aggregates runtime counters used throughout the evaluation
// harness.
type Stats struct {
	InstructionsExecuted int64
	MethodInvocations    int64
	ClassesLoaded        int64
	BytesLoaded          int64
	ObjectsAllocated     int64
	GCRuns               int64
	ObjectsCollected     int64
	LinkChecks           int64 // dynamic RTVerifier checks executed
	SecurityChecks       int64 // enforcement manager checks executed
	AuditEvents          int64
	MonitorOps           int64
}

// VM is one virtual machine instance (one "client" in the paper's
// topology).
type VM struct {
	Loader ClassLoader
	Stdout io.Writer

	// Properties backs System.getProperty; VFS backs java/io.
	Properties map[string]string
	VFS        *VirtualFS

	// Hooks for service components.
	LoadHooks []LoadHook
	// CheckLink is consulted by the RTVerifier dynamic component natives.
	CheckLink LinkChecker
	// CheckAccess is consulted by the dvm/Enforce natives (the DVM's
	// client-side enforcement manager).
	CheckAccess AccessChecker
	// BuiltinChecks is the monolithic baseline's security manager. It is
	// consulted only at the library points the original system designers
	// anticipated (property access, file open, thread priority) — file
	// *reads* deliberately have no hook, reproducing the JDK limitation
	// Figure 9 demonstrates.
	BuiltinChecks AccessChecker
	// OnAudit receives audit events from instrumented code.
	OnAudit func(event AuditEvent)
	// OnMethodEnter/OnMethodExit are VM-level invocation hooks. The
	// *monolithic* baseline implements its local auditing service with
	// these (a service embedded in the client VM); the DVM instead
	// injects dvm/Audit calls into the code itself. nil hooks cost
	// nothing.
	OnMethodEnter func(class, method string)
	OnMethodExit  func(class, method string)
	// OnFirstUse receives first-invocation profile events.
	OnFirstUse func(class, method, desc string)

	// MaxInstructions guards against runaway programs in tests and the
	// proxy's worst-case benchmarks; 0 means unlimited.
	MaxInstructions int64

	// TraceOpcodes enables the instruction-level profiling service of
	// §3.3: per-opcode execution counts accumulate in OpcodeCounts. The
	// paper used this to collect synchronization-behavior traces
	// (monitorenter/monitorexit frequencies) feeding [Aldrich et al. 99].
	TraceOpcodes bool
	OpcodeCounts [256]int64

	Stats Stats

	classes    map[string]*Class
	natives    map[string]NativeFunc
	strings    map[string]*Object // interned String objects
	mainThread *Thread

	// heap for the mark-sweep collector
	heapHead    *Object
	heapCount   int
	gcThreshold int
	pinned      map[*Object]struct{}
	hashCounter int32
	threadObj   *Object
	classObjs   map[*Class]*Object

	bootstrapped bool
}

// LinkChecker validates a dynamic link-phase assumption (phase 4 of
// verification). Implemented by the verifier package's runtime component.
type LinkChecker interface {
	CheckField(t *Thread, class, field, desc string) *Object // returns thrown exception or nil
	CheckMethod(t *Thread, class, method, desc string) *Object
}

// AccessChecker mediates a security-relevant operation. Implemented by
// the security package's enforcement manager (DVM mode) and by the
// stack-introspection manager (monolithic mode).
type AccessChecker interface {
	Check(t *Thread, permission, target string) *Object // thrown exception or nil
}

// AuditEvent is one remote-monitoring record emitted by instrumented code
// or by the runtime.
type AuditEvent struct {
	Class  string
	Method string
	Kind   string // "enter" or "exit"
}

// New creates a VM backed by the given loader and bootstraps the runtime
// library classes.
func New(loader ClassLoader, stdout io.Writer) (*VM, error) {
	if stdout == nil {
		stdout = io.Discard
	}
	vm := &VM{
		Loader:      loader,
		Stdout:      stdout,
		Properties:  defaultProperties(),
		VFS:         NewVirtualFS(),
		classes:     make(map[string]*Class),
		natives:     make(map[string]NativeFunc),
		strings:     make(map[string]*Object),
		pinned:      make(map[*Object]struct{}),
		gcThreshold: 1 << 16,
	}
	vm.mainThread = &Thread{vm: vm, Name: "main", Priority: 5}
	if err := vm.bootstrap(); err != nil {
		return nil, err
	}
	vm.bootstrapped = true
	return vm, nil
}

func defaultProperties() map[string]string {
	return map[string]string{
		"java.version":    "1.2-dvm",
		"java.vendor":     "dvm",
		"os.name":         "dvm-sim",
		"os.arch":         "x86",
		"file.separator":  "/",
		"line.separator":  "\n",
		"user.name":       "dvmuser",
		"user.home":       "/home/dvmuser",
		"java.class.path": ".",
	}
}

// MainThread returns the VM's single execution thread.
func (vm *VM) MainThread() *Thread { return vm.mainThread }

// RegisterNative installs a Go implementation for class.name(desc). When
// the class is already loaded the method is patched in place; otherwise
// the registration is consulted at link time.
func (vm *VM) RegisterNative(class, name, desc string, fn NativeFunc) {
	key := class + "." + name + desc
	vm.natives[key] = fn
	if c, ok := vm.classes[class]; ok {
		if m := c.DeclaredMethod(name, desc); m != nil {
			m.Native = fn
		}
	}
}

// LoadedClass returns the class if it has been defined, without loading.
func (vm *VM) LoadedClass(name string) *Class { return vm.classes[name] }

// LoadedClassNames returns the sorted names of all defined classes.
func (vm *VM) LoadedClassNames() []string {
	names := make([]string, 0, len(vm.classes))
	for n := range vm.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Class resolves a class by name, loading, defining, and linking it (and
// its superclasses) if necessary. Array classes are synthesized on
// demand.
func (vm *VM) Class(name string) (*Class, error) {
	if c, ok := vm.classes[name]; ok {
		return c, nil
	}
	if elem, ok := elemDescOfArrayName(name); ok {
		return vm.arrayClass(elem)
	}
	if vm.Loader == nil {
		return nil, fmt.Errorf("jvm: no loader to resolve %s", name)
	}
	data, err := vm.Loader.Load(name)
	if err != nil {
		return nil, err
	}
	return vm.DefineClass(name, data)
}

// DefineClass parses and links a class from bytes. The supplied name must
// match the class's own name (a linkage check the paper's dynamic
// verification component also performs).
func (vm *VM) DefineClass(name string, data []byte) (*Class, error) {
	for _, h := range vm.LoadHooks {
		if err := h(vm, name, data); err != nil {
			return nil, err
		}
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("jvm: defining %s: %w", name, err)
	}
	if cf.Name() != name {
		return nil, fmt.Errorf("jvm: class file for %s declares name %s", name, cf.Name())
	}
	vm.Stats.ClassesLoaded++
	vm.Stats.BytesLoaded += int64(len(data))
	return vm.link(cf)
}

// link creates the runtime class structure.
func (vm *VM) link(cf *classfile.ClassFile) (*Class, error) {
	name := cf.Name()
	if _, dup := vm.classes[name]; dup {
		return nil, fmt.Errorf("jvm: duplicate class definition %s", name)
	}
	c := &Class{
		Name:       name,
		File:       cf,
		Flags:      cf.AccessFlags,
		fieldSlot:  make(map[string]int),
		fieldDesc:  make(map[string]string),
		staticSlot: make(map[string]int),
		methods:    make(map[string]*Method),
		vm:         vm,
	}
	// Install before resolving the hierarchy so self-references work, but
	// remove again on failure.
	vm.classes[name] = c
	ok := false
	defer func() {
		if !ok {
			delete(vm.classes, name)
		}
	}()

	if super := cf.SuperName(); super != "" {
		sc, err := vm.Class(super)
		if err != nil {
			return nil, fmt.Errorf("jvm: superclass of %s: %w", name, err)
		}
		c.Super = sc
	} else if name != "java/lang/Object" {
		return nil, fmt.Errorf("jvm: class %s has no superclass", name)
	}
	for _, iname := range cf.InterfaceNames() {
		ic, err := vm.Class(iname)
		if err != nil {
			return nil, fmt.Errorf("jvm: superinterface of %s: %w", name, err)
		}
		c.Interfaces = append(c.Interfaces, ic)
	}

	// Field layout: instance slots continue the superclass layout.
	base := 0
	if c.Super != nil {
		base = c.Super.instanceSlots
		c.slotDescs = append(c.slotDescs, c.Super.slotDescs...)
	}
	staticDescs := []string{}
	for _, f := range cf.Fields {
		fname := cf.MemberName(f)
		fdesc := cf.MemberDescriptor(f)
		key := fname + " " + fdesc
		c.fieldDesc[fname] = fdesc
		if f.AccessFlags&classfile.AccStatic != 0 {
			c.staticSlot[key] = len(staticDescs)
			staticDescs = append(staticDescs, fdesc)
		} else {
			c.fieldSlot[key] = base
			c.slotDescs = append(c.slotDescs, fdesc)
			base++
		}
	}
	c.instanceSlots = base
	c.statics = make([]Value, len(staticDescs))
	for i, d := range staticDescs {
		c.statics[i] = zeroValueFor(d)
	}
	// ConstantValue attributes initialize statics eagerly.
	for _, f := range cf.Fields {
		if f.AccessFlags&classfile.AccStatic == 0 {
			continue
		}
		a := cf.FindAttr(f.Attributes, classfile.AttrConstantValue)
		if a == nil {
			continue
		}
		idx, err := classfile.ConstantValueIndex(a)
		if err != nil {
			return nil, err
		}
		v, err := vm.constantValue(cf.Pool, idx)
		if err != nil {
			return nil, err
		}
		slot := c.staticSlot[cf.MemberName(f)+" "+cf.MemberDescriptor(f)]
		c.statics[slot] = v
	}

	for _, mm := range cf.Methods {
		m, err := vm.linkMethod(c, cf, mm)
		if err != nil {
			return nil, err
		}
		c.methods[m.Key()] = m
		c.methodOrder = append(c.methodOrder, m)
	}
	ok = true
	return c, nil
}

func (vm *VM) linkMethod(c *Class, cf *classfile.ClassFile, mm *classfile.Member) (*Method, error) {
	name := cf.MemberName(mm)
	desc := cf.MemberDescriptor(mm)
	mt, err := parseMethodTypeCached(desc)
	if err != nil {
		return nil, fmt.Errorf("jvm: %s.%s: %w", c.Name, name, err)
	}
	m := &Method{Class: c, Name: name, Desc: desc, Flags: mm.AccessFlags, MT: mt}
	code, err := cf.CodeOf(mm)
	if err != nil {
		return nil, fmt.Errorf("jvm: %s.%s: %w", c.Name, name, err)
	}
	m.Code = code
	if fn, ok := vm.natives[c.Name+"."+name+desc]; ok {
		m.Native = fn
	}
	return m, nil
}

// constantValue converts a loadable pool entry to a runtime Value.
func (vm *VM) constantValue(pool *classfile.ConstPool, idx uint16) (Value, error) {
	e, err := pool.Entry(idx)
	if err != nil {
		return Value{}, err
	}
	switch e.Tag {
	case classfile.TagInteger:
		return IntV(e.Int), nil
	case classfile.TagFloat:
		return FloatV(e.Float), nil
	case classfile.TagLong:
		return LongV(e.Long), nil
	case classfile.TagDouble:
		return DoubleV(e.Double), nil
	case classfile.TagString:
		s, err := pool.StringValue(idx)
		if err != nil {
			return Value{}, err
		}
		return RefV(vm.InternString(s)), nil
	}
	return Value{}, fmt.Errorf("jvm: constant %d (tag %s) is not loadable", idx, e.Tag)
}

// arrayClass synthesizes (or returns) the array class for elemDesc.
func (vm *VM) arrayClass(elemDesc string) (*Class, error) {
	name := arrayClassNameFor(elemDesc)
	if c, ok := vm.classes[name]; ok {
		return c, nil
	}
	obj, err := vm.Class("java/lang/Object")
	if err != nil {
		return nil, err
	}
	c := &Class{
		Name:       name,
		Super:      obj,
		IsArray:    true,
		ElemDesc:   elemDesc,
		fieldSlot:  map[string]int{},
		fieldDesc:  map[string]string{},
		staticSlot: map[string]int{},
		methods:    map[string]*Method{},
		vm:         vm,
		initState:  2,
	}
	if len(elemDesc) > 0 && (elemDesc[0] == 'L' || elemDesc[0] == '[') {
		var elemName string
		if elemDesc[0] == 'L' {
			elemName = elemDesc[1 : len(elemDesc)-1]
		} else {
			elemName = elemDesc
		}
		ec, err := vm.Class(elemName)
		if err != nil {
			return nil, err
		}
		c.Elem = ec
	}
	vm.classes[name] = c
	return c, nil
}

// EnsureInitialized runs the class's <clinit> on first active use.
func (vm *VM) EnsureInitialized(t *Thread, c *Class) (*Object, error) {
	if c.initState == 2 || c.initState == 1 {
		return nil, nil // done, or in progress on this (single) thread
	}
	c.initState = 1
	if c.Super != nil {
		if thrown, err := vm.EnsureInitialized(t, c.Super); thrown != nil || err != nil {
			return thrown, err
		}
	}
	if clinit := c.DeclaredMethod("<clinit>", "()V"); clinit != nil {
		_, thrown, err := t.Invoke(clinit, nil)
		if err != nil {
			return nil, err
		}
		if thrown != nil {
			c.initState = 0
			return thrown, nil
		}
	}
	c.initState = 2
	return nil, nil
}

// InternString returns the canonical java/lang/String object for s.
func (vm *VM) InternString(s string) *Object {
	if o, ok := vm.strings[s]; ok {
		return o
	}
	o := vm.newStringNoIntern(s)
	vm.strings[s] = o
	vm.Pin(o)
	return o
}

// NewString allocates a (non-interned) String object.
func (vm *VM) NewString(s string) *Object { return vm.newStringNoIntern(s) }

func (vm *VM) newStringNoIntern(s string) *Object {
	c := vm.classes["java/lang/String"]
	if c == nil {
		// Bootstrap order guarantees String exists before user code runs.
		panic("jvm: String class not bootstrapped")
	}
	o := vm.NewInstance(c)
	o.Native = s
	return o
}

// GoString extracts the Go string from a java/lang/String object.
func GoString(o *Object) string {
	if o == nil {
		return ""
	}
	if s, ok := o.Native.(string); ok {
		return s
	}
	return ""
}

// Throw constructs an exception object of the named class with the given
// message, running no constructor bytecode (the runtime exception classes
// are native-backed).
func (vm *VM) Throw(className, message string) *Object {
	c, err := vm.Class(className)
	if err != nil {
		// Fall back to the root throwable; this only happens if the
		// bootstrap image is broken.
		c = vm.classes["java/lang/Throwable"]
		if c == nil {
			panic(fmt.Sprintf("jvm: cannot synthesize %s (%v) and no Throwable", className, err))
		}
	}
	o := vm.NewInstance(c)
	if slot, ok := c.FieldSlot("message", "Ljava/lang/String;"); ok {
		o.SetField(slot, RefV(vm.InternString(message)))
	}
	return o
}

// ThrowableMessage extracts the message from a throwable object.
func ThrowableMessage(o *Object) string {
	if o == nil {
		return ""
	}
	if slot, ok := o.Class.FieldSlot("message", "Ljava/lang/String;"); ok {
		return GoString(o.GetField(slot).Ref())
	}
	return ""
}

// DescribeThrowable renders "class: message" for error reporting.
func DescribeThrowable(o *Object) string {
	if o == nil {
		return "<nil throwable>"
	}
	msg := ThrowableMessage(o)
	if msg == "" {
		return o.Class.Name
	}
	return o.Class.Name + ": " + msg
}

// RunMain resolves className, initializes it, and invokes
// main([Ljava/lang/String;)V with the given arguments. It returns the
// uncaught Java exception (if any) and internal VM errors.
func (vm *VM) RunMain(className string, args []string) (*Object, error) {
	t := vm.mainThread
	c, err := vm.Class(className)
	if err != nil {
		return nil, err
	}
	if thrown, err := vm.EnsureInitialized(t, c); thrown != nil || err != nil {
		return thrown, err
	}
	m := c.LookupMethod("main", "([Ljava/lang/String;)V")
	if m == nil {
		return nil, fmt.Errorf("jvm: %s has no main([Ljava/lang/String;)V", className)
	}
	strCls, err := vm.Class("java/lang/String")
	if err != nil {
		return nil, err
	}
	arrCls, err := vm.arrayClass("L" + strCls.Name + ";")
	if err != nil {
		return nil, err
	}
	arr := vm.NewArray(arrCls, len(args))
	for i, a := range args {
		arr.Elems[i] = RefV(vm.InternString(a))
	}
	_, thrown, err := t.Invoke(m, []Value{RefV(arr)})
	return thrown, err
}
