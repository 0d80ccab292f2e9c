// Package classgen provides a programmatic builder for Java classfiles:
// a constant-pool-interning class builder and a method assembler with
// labels, automatic max_stack/max_locals computation, and convenience
// emitters that choose optimal encodings (iconst_n vs bipush vs sipush vs
// ldc, load_n vs load).
//
// The DVM uses it to synthesize the benchmark workloads of the paper's
// evaluation (Figure 5's applications and Figure 11's applets) as real,
// runnable classfiles, and throughout the test suite to construct inputs
// for the verifier, rewriter, and interpreter.
package classgen

import (
	"fmt"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// ClassBuilder accumulates a class under construction.
type ClassBuilder struct {
	cf      *classfile.ClassFile
	methods []*MethodBuilder
	err     error
}

// NewClass starts a public class with the given internal name and
// superclass ("java/lang/Object" for most classes).
func NewClass(name, super string) *ClassBuilder {
	pool := classfile.NewConstPool()
	cf := &classfile.ClassFile{
		MinorVersion: 3,
		MajorVersion: 45, // JDK 1.0.2-compatible version, per the paper's era
		Pool:         pool,
		AccessFlags:  classfile.AccPublic | classfile.AccSuper,
	}
	cf.ThisClass = pool.AddClass(name)
	if super != "" {
		cf.SuperClass = pool.AddClass(super)
	}
	return &ClassBuilder{cf: cf}
}

// SetFlags replaces the class access flags.
func (b *ClassBuilder) SetFlags(flags uint16) *ClassBuilder {
	b.cf.AccessFlags = flags
	return b
}

// AddInterface declares that the class implements the named interface.
func (b *ClassBuilder) AddInterface(name string) *ClassBuilder {
	b.cf.Interfaces = append(b.cf.Interfaces, b.cf.Pool.AddClass(name))
	return b
}

// Pool exposes the constant pool for direct interning.
func (b *ClassBuilder) Pool() *classfile.ConstPool { return b.cf.Pool }

// Name returns the internal name of the class under construction.
func (b *ClassBuilder) Name() string { return b.cf.Name() }

// Field adds a field with the given flags, name, and type descriptor.
func (b *ClassBuilder) Field(flags uint16, name, desc string) *ClassBuilder {
	b.cf.Fields = append(b.cf.Fields, &classfile.Member{
		AccessFlags:     flags,
		NameIndex:       b.cf.Pool.AddUtf8(name),
		DescriptorIndex: b.cf.Pool.AddUtf8(desc),
	})
	return b
}

// Method starts a method body. Abstract/native methods should instead use
// AbstractMethod.
func (b *ClassBuilder) Method(flags uint16, name, desc string) *MethodBuilder {
	mt, err := bytecode.ParseMethodType(desc)
	if err != nil && b.err == nil {
		b.err = fmt.Errorf("classgen: method %s%s: %v", name, desc, err)
	}
	locals := mt.ParamSlots()
	if flags&classfile.AccStatic == 0 {
		locals++ // receiver
	}
	mb := &MethodBuilder{
		class:     b,
		flags:     flags,
		name:      name,
		desc:      desc,
		maxLocals: locals,
	}
	b.methods = append(b.methods, mb)
	return mb
}

// AbstractMethod declares a method without a body.
func (b *ClassBuilder) AbstractMethod(flags uint16, name, desc string) *ClassBuilder {
	b.cf.Methods = append(b.cf.Methods, &classfile.Member{
		AccessFlags:     flags,
		NameIndex:       b.cf.Pool.AddUtf8(name),
		DescriptorIndex: b.cf.Pool.AddUtf8(desc),
	})
	return b
}

// DefaultInit emits the canonical no-argument constructor that invokes
// the superclass constructor.
func (b *ClassBuilder) DefaultInit() *ClassBuilder {
	super := b.cf.SuperName()
	if super == "" {
		super = "java/lang/Object"
	}
	m := b.Method(classfile.AccPublic, "<init>", "()V")
	m.ALoad(0)
	m.InvokeSpecial(super, "<init>", "()V")
	m.Return()
	return b
}

// Build finalizes every method body (resolving labels, computing
// max_stack/max_locals, encoding Code attributes) and returns the
// finished classfile. Build may be called again after adding more
// methods; already-finalized bodies are not re-emitted.
func (b *ClassBuilder) Build() (*classfile.ClassFile, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, mb := range b.methods {
		if mb.done {
			continue
		}
		if err := mb.finish(); err != nil {
			return nil, fmt.Errorf("classgen: %s.%s%s: %w", b.cf.Name(), mb.name, mb.desc, err)
		}
		mb.done = true
	}
	return b.cf, nil
}

// MustBuild is Build for tests and generators with static inputs; it
// panics on error.
func (b *ClassBuilder) MustBuild() *classfile.ClassFile {
	cf, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cf
}

// BuildBytes builds the class and serializes it.
func (b *ClassBuilder) BuildBytes() ([]byte, error) {
	cf, err := b.Build()
	if err != nil {
		return nil, err
	}
	return cf.Encode()
}
