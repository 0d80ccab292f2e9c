package rewrite

import (
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// Snippet builds a short instruction sequence for splicing, interning
// operands into the target class's constant pool. Branches inside a
// snippet use the Rel* sentinels from this package.
type Snippet struct {
	pool  *classfile.ConstPool
	sc    *scratch
	insts []bytecode.Inst
}

// NewSnippet starts a snippet against the given pool. The snippet and
// its instructions are storage of the pool's class, like the method bodies
// they are spliced into, and go when the class is released.
func NewSnippet(pool *classfile.ConstPool) *Snippet {
	sc := scratchOf(pool)
	s := &sc.snippets.Take(1)[0]
	// Room for an audit or access-check call without regrowing.
	*s = Snippet{pool: pool, sc: sc, insts: sc.Insts(8)}
	return s
}

// Insts returns the accumulated instructions.
func (s *Snippet) Insts() []bytecode.Inst { return s.insts }

// Len returns the number of instructions so far (useful for RelSelf).
func (s *Snippet) Len() int { return len(s.insts) }

func (s *Snippet) emit(in bytecode.Inst) *Snippet {
	if !in.Op.IsBranch() && !in.Op.IsSwitch() {
		in.Target = -1
	}
	n := len(s.insts)
	s.insts = s.sc.GrowInsts(s.insts, 1)[:n+1]
	s.insts[n] = in
	return s
}

// LdcString pushes a string constant.
func (s *Snippet) LdcString(v string) *Snippet {
	return s.emit(bytecode.Inst{Op: bytecode.Ldc, Index: s.pool.AddString(v)})
}

// IConst pushes an int constant with the smallest encoding.
func (s *Snippet) IConst(v int32) *Snippet {
	switch {
	case v >= -1 && v <= 5:
		return s.emit(bytecode.Inst{Op: bytecode.Opcode(int32(bytecode.Iconst0) + v)})
	case v >= -128 && v <= 127:
		return s.emit(bytecode.Inst{Op: bytecode.Bipush, Const: v})
	case v >= -32768 && v <= 32767:
		return s.emit(bytecode.Inst{Op: bytecode.Sipush, Const: v})
	}
	return s.emit(bytecode.Inst{Op: bytecode.Ldc, Index: s.pool.AddInteger(v)})
}

// ALoad loads a reference local.
func (s *Snippet) ALoad(idx uint16) *Snippet {
	if idx < 4 {
		return s.emit(bytecode.Inst{Op: bytecode.Aload0 + bytecode.Opcode(idx)})
	}
	return s.emit(bytecode.Inst{Op: bytecode.Aload, Index: idx})
}

// Dup duplicates the top slot.
func (s *Snippet) Dup() *Snippet { return s.emit(bytecode.Inst{Op: bytecode.Dup}) }

// Pop discards the top slot.
func (s *Snippet) Pop() *Snippet { return s.emit(bytecode.Inst{Op: bytecode.Pop}) }

// Swap exchanges the top two slots.
func (s *Snippet) Swap() *Snippet { return s.emit(bytecode.Inst{Op: bytecode.Swap}) }

// GetStatic reads a static field.
func (s *Snippet) GetStatic(class, name, desc string) *Snippet {
	return s.emit(bytecode.Inst{Op: bytecode.Getstatic, Index: s.pool.AddFieldref(class, name, desc)})
}

// PutStatic writes a static field.
func (s *Snippet) PutStatic(class, name, desc string) *Snippet {
	return s.emit(bytecode.Inst{Op: bytecode.Putstatic, Index: s.pool.AddFieldref(class, name, desc)})
}

// InvokeStatic calls a static method.
func (s *Snippet) InvokeStatic(class, name, desc string) *Snippet {
	return s.emit(bytecode.Inst{Op: bytecode.Invokestatic, Index: s.pool.AddMethodref(class, name, desc)})
}

// InvokeVirtual calls a virtual method.
func (s *Snippet) InvokeVirtual(class, name, desc string) *Snippet {
	return s.emit(bytecode.Inst{Op: bytecode.Invokevirtual, Index: s.pool.AddMethodref(class, name, desc)})
}

// Branch emits a branch with a Rel* target sentinel.
func (s *Snippet) Branch(op bytecode.Opcode, relTarget int) *Snippet {
	return s.emit(bytecode.Inst{Op: op, Target: relTarget})
}
