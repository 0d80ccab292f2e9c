package rewrite

import (
	"unsafe"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// ScratchRetained reports the bytes the arena riding pool holds on to,
// and the most any arena may hold between classes.
func ScratchRetained(pool *classfile.ConstPool) (held, bound int) {
	sc := scratchOf(pool)
	held = sc.Arena.Retained() + slabBytes(&sc.editors) + slabBytes(&sc.snippets) + slabBytes(&sc.codes) +
		slabBytes(&sc.handlers) + slabBytes(&sc.table)
	structs := unsafe.Sizeof(MethodEditor{}) + unsafe.Sizeof(Snippet{}) + unsafe.Sizeof(classfile.Code{}) +
		unsafe.Sizeof(Handler{}) + unsafe.Sizeof(classfile.ExceptionHandler{})
	return held, bytecode.MaxRetained + retainStructs*int(structs)
}

func slabBytes[T any](s *bytecode.Slab[T]) int {
	var zero T
	return s.Cap() * int(unsafe.Sizeof(zero))
}
