package monitor

import (
	"fmt"
	"sort"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/jvm"
)

// Instruction-level profiling (§3.3): "we provide an instruction-level
// profiling and tracing service for monitoring application performance
// ... we have used the tracing service to obtain traces of
// synchronization behavior for Java applications."

// OpcodeSample is one row of an instruction-level profile.
type OpcodeSample struct {
	Opcode bytecode.Opcode
	Name   string
	Count  int64
}

// OpcodeProfile extracts the per-opcode execution counts from a VM run
// with TraceOpcodes enabled, sorted by descending count.
func OpcodeProfile(vm *jvm.VM) []OpcodeSample {
	var out []OpcodeSample
	for op, n := range vm.OpcodeCounts {
		if n == 0 {
			continue
		}
		o := bytecode.Opcode(op)
		out = append(out, OpcodeSample{Opcode: o, Name: o.Name(), Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Opcode < out[j].Opcode
	})
	return out
}

// FormatProfile renders the top-n rows of an instruction profile.
func FormatProfile(samples []OpcodeSample, n int) string {
	if n > len(samples) {
		n = len(samples)
	}
	var b strings.Builder
	var total int64
	for _, s := range samples {
		total += s.Count
	}
	fmt.Fprintf(&b, "%-18s %12s %7s\n", "opcode", "count", "share")
	for _, s := range samples[:n] {
		fmt.Fprintf(&b, "%-18s %12d %6.2f%%\n", s.Name, s.Count, float64(s.Count)/float64(total)*100)
	}
	return b.String()
}
