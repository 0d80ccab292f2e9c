// Package compiler implements the DVM's centralized compilation service
// (paper §3.4). Monolithic virtual machines compile just-in-time on the
// client, under tight time and memory pressure; the DVM instead performs
// the translation once, within the network, for the native format each
// client described in its handshake — "a compiler within the network can
// thus perform the translation for that platform ahead of time and thus
// amortize its startup costs over larger amounts of code."
//
// The client architecture targeted here is the DVM runtime's quickened
// instruction set (bytecode.Ext*): superinstructions that fuse the
// hottest interpreter dispatch sequences —
//
//	iload a; iload b; iadd          → ext_load_add a, b
//	iload a; iload b; imul          → ext_load_mul a, b
//	iload a; iload b; if_icmp<c> T  → ext_cmp_branch a, b, c, T
//	iinc a, k; iload a              → ext_iinc_load a, k
//
// The output is NOT standard JVM bytecode: this filter must run last in
// the pipeline (after verification and the other rewriters) and only for
// clients whose handshake advertises the "dvm" architecture family.
// Standard monolithic clients simply receive the unfused code.
package compiler

import (
	"fmt"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// ArchDVM is the client architecture string the handshake uses to opt in
// to the quickened native format.
const ArchDVM = "dvm"

// FilterName is the compilation filter's name in a pipeline.
const FilterName = "compiler"

// AttrCompiled marks a class translated by the compilation service; the
// payload is the target architecture string.
const AttrCompiled = "dvm.Compiled"

// Pipeline note keys published by Filter.
const (
	// NoteFusions accumulates (int) the number of superinstructions
	// emitted across classes.
	NoteFusions = "compiler.fusions"
)

// Stats reports what one compilation pass did.
type Stats struct {
	MethodsCompiled int
	Fusions         int
	BytesBefore     int
	BytesAfter      int
}

// CompileClass translates every method body of the class into the
// quickened format in place.
func CompileClass(cf *classfile.ClassFile) (Stats, error) {
	var st Stats
	for _, m := range cf.Methods {
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return st, fmt.Errorf("compiler: %w", err)
		}
		if ed == nil {
			continue
		}
		before := len(ed.Code().Bytecode)
		st.BytesBefore += before
		n := fuse(ed)
		if n == 0 {
			st.BytesAfter += before
			continue
		}
		// Fusion leaves stack depth and locals as they were, so only the
		// layout is re-encoded; max_stack is not recomputed here.
		if err := ed.CommitLayout(); err != nil {
			return st, fmt.Errorf("compiler: %w", err)
		}
		st.MethodsCompiled++
		st.Fusions += n
		st.BytesAfter += len(ed.Code().Bytecode)
	}
	cf.RemoveAttribute(AttrCompiled)
	cf.AddAttribute(AttrCompiled, append(rewrite.ArenaOf(cf).Bytes(len(ArchDVM)), ArchDVM...))
	return st, nil
}

// CompileArtifact derives the DVM-native artifact from an already
// transformed base-architecture artifact: parse, quicken in place,
// re-encode. Because every pipeline filter ahead of the compiler is
// architecture-independent and the compiler only appends to the
// constant pool, the result is byte-identical to running the full
// pipeline with the DVM architecture (internal/eval's
// TestCompileArtifactDerivesThePipeline holds every corpus class to it).
func CompileArtifact(base []byte) ([]byte, error) {
	cf, err := classfile.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("compiler: parsing base artifact: %w", err)
	}
	defer cf.Release() // the encoding below is a fresh buffer; the class is dead either way
	if _, err := CompileClass(cf); err != nil {
		return nil, err
	}
	return cf.Encode()
}

// protectedIndices marks instruction indices that must stay addressable:
// branch/switch targets and exception-table boundaries. A fusion window
// may start at a protected index but not contain one beyond its first
// instruction.
func protectedIndices(ed *rewrite.MethodEditor) []bool {
	p := ed.Arena().Bools(len(ed.Insts) + 1) // +1: a handler may end at the end of the code
	for i := range ed.Insts {
		in := &ed.Insts[i]
		if in.Op.IsBranch() {
			p[in.Target] = true
		}
		if in.Op.IsSwitch() {
			p[in.Switch.Default] = true
			for _, t := range in.Switch.Targets {
				p[t] = true
			}
		}
	}
	for _, h := range ed.Handlers {
		p[h.Start], p[h.End], p[h.Target] = true, true, true
	}
	return p
}

// fuse rewrites the editor's instruction list in place, replacing
// fusible windows with superinstructions and remapping branch targets and
// the exception table; it returns the number of fusions. Fusing only
// shrinks the list, so the output cursor never passes the input cursor.
func fuse(ed *rewrite.MethodEditor) int {
	insts := ed.Insts
	protected := protectedIndices(ed)
	out := insts[:0]
	newIdx := ed.Arena().Int32s(len(insts) + 1) // old index of a window start (or the end) -> new index
	fusions := 0

	iloadIdx := func(in bytecode.Inst) (uint16, bool) {
		switch {
		case in.Op == bytecode.Iload && !in.Wide && in.Index <= 0xFF:
			return in.Index, true
		case in.Op >= bytecode.Iload0 && in.Op <= bytecode.Iload3:
			return uint16(in.Op - bytecode.Iload0), true
		}
		return 0, false
	}

	i := 0
	for i < len(insts) {
		emit := func(in bytecode.Inst, consumed int) {
			newIdx[i] = int32(len(out))
			out = append(out, in)
			i += consumed
		}
		// Window must not contain protected indices after the first slot.
		clear3 := i+2 < len(insts) && !protected[i+1] && !protected[i+2]
		clear2 := i+1 < len(insts) && !protected[i+1]

		if clear3 {
			a, okA := iloadIdx(insts[i])
			b, okB := iloadIdx(insts[i+1])
			third := insts[i+2]
			if okA && okB {
				switch {
				case third.Op == bytecode.Iadd:
					emit(bytecode.Inst{Op: bytecode.ExtLoadAdd, Index: a, ArrayType: uint8(b), Target: -1}, 3)
					fusions++
					continue
				case third.Op == bytecode.Imul:
					emit(bytecode.Inst{Op: bytecode.ExtLoadMul, Index: a, ArrayType: uint8(b), Target: -1}, 3)
					fusions++
					continue
				case third.Op >= bytecode.IfIcmpeq && third.Op <= bytecode.IfIcmple:
					emit(bytecode.Inst{
						Op: bytecode.ExtCmpBranch, Index: a, ArrayType: uint8(b),
						Count:  uint8(third.Op - bytecode.IfIcmpeq),
						Target: third.Target,
					}, 3)
					fusions++
					continue
				}
			}
		}
		if clear2 && insts[i].Op == bytecode.Iinc && !insts[i].Wide &&
			insts[i].Index <= 0xFF && insts[i].Const >= -128 && insts[i].Const <= 127 {
			if b, ok := iloadIdx(insts[i+1]); ok && b == insts[i].Index {
				emit(bytecode.Inst{Op: bytecode.ExtIincLoad, Index: insts[i].Index, Const: insts[i].Const, Target: -1}, 2)
				fusions++
				continue
			}
		}
		emit(insts[i], 1)
	}
	if fusions == 0 {
		return 0 // every instruction was copied onto itself
	}
	newIdx[len(insts)] = int32(len(out))
	ed.Insts = out

	// Remap targets. Old targets always point at window starts (protected
	// or untouched), which newIdx covers.
	for j := range out {
		in := &out[j]
		if in.Op.IsBranch() {
			in.Target = int(newIdx[in.Target])
		} else if in.Op.IsSwitch() {
			in.Switch.Default = int(newIdx[in.Switch.Default])
			for k, t := range in.Switch.Targets {
				in.Switch.Targets[k] = int(newIdx[t])
			}
		}
	}
	for j := range ed.Handlers {
		h := &ed.Handlers[j]
		h.Start, h.End, h.Target = int(newIdx[h.Start]), int(newIdx[h.End]), int(newIdx[h.Target])
	}
	return fusions
}

// Filter returns the compilation service as a pipeline filter. It only
// transforms code when the requesting client's architecture (from the
// handshake, carried in ctx.ClientArch) opts in to the DVM native
// format; for every other client it is a no-op, preserving strict JVM
// compatibility.
func Filter() rewrite.Filter {
	return rewrite.FilterFunc{FilterName: FilterName, Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		if ctx.ClientArch != ArchDVM {
			return nil
		}
		st, err := CompileClass(cf)
		if err != nil {
			return err
		}
		ctx.AddIntNote(NoteFusions, st.Fusions)
		return nil
	}}
}
