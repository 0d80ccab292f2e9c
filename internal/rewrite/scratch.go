package rewrite

import (
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// scratch is the one arena of a class: everything this package makes
// whose life is Parse → Release — the decoded forms of the method bodies
// with their instruction lists, PC indexes and exception tables, the Code
// headers and payloads Commit writes, the snippets spliced in. It rides
// the class's constant pool (ConstPool.Scratch), so it is recycled with
// the pool and the next class parsed into that pool edits in the same
// memory.
type scratch struct {
	bytecode.Arena
	editors  bytecode.Slab[MethodEditor]
	snippets bytecode.Slab[Snippet]
	codes    bytecode.Slab[classfile.Code]
	handlers bytecode.Slab[Handler]
	table    bytecode.Slab[classfile.ExceptionHandler]
}

// retainStructs bounds, in elements, what each of the struct slabs keeps
// across Reset: a class has at most 65535 methods, the ones a proxy sees
// have tens.
const retainStructs = 1 << 10

// scratchOf returns the arena of the class that owns pool, hanging a new
// one on a pool that has none (a pool's first class, or a class built
// rather than parsed).
func scratchOf(pool *classfile.ConstPool) *scratch {
	if sc, ok := pool.Scratch().(*scratch); ok {
		return sc
	}
	sc := new(scratch)
	pool.SetScratch(sc)
	return sc
}

// Reset implements classfile.Scratch. The structs are zeroed so that the
// recycled slabs keep nothing of the dead class alive, and so that an
// editor or snippet held past Release has no class, pool or instructions.
func (sc *scratch) Reset() {
	clear(sc.editors.Used())
	clear(sc.snippets.Used())
	clear(sc.codes.Used())
	sc.editors.Reset(retainStructs)
	sc.snippets.Reset(retainStructs)
	sc.codes.Reset(retainStructs)
	sc.handlers.Reset(retainStructs)
	sc.table.Reset(retainStructs)
	sc.Arena.Reset()
}
