package bytecode

import "testing"

// CountMaxStack hands f each MaxStack call's instructions and steps until
// the test ends. f may be called from several goroutines at once.
func CountMaxStack(t testing.TB, f func(insts []Inst, steps int)) {
	onMaxStack = f
	t.Cleanup(func() { onMaxStack = nil })
}
