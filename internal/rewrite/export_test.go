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
	held = sc.Arena.Retained() + sc.editors.Bytes() + sc.snippets.Bytes() + sc.codes.Bytes() +
		sc.handlers.Bytes() + sc.table.Bytes()
	structs := unsafe.Sizeof(MethodEditor{}) + unsafe.Sizeof(Snippet{}) + unsafe.Sizeof(classfile.Code{}) +
		unsafe.Sizeof(Handler{}) + unsafe.Sizeof(classfile.ExceptionHandler{})
	return held, bytecode.MaxRetained + retainStructs*int(structs)
}
