package bytecode

import "encoding/binary"

// Encode serializes an instruction list back to raw bytecode. Branch and
// switch targets are taken from the instruction-index representation and
// converted to byte offsets; switch padding is recomputed; ldc, local
// variable, iinc, goto and jsr instructions are automatically promoted to
// their wide forms when operands or offsets overflow the short encodings.
//
// The returned pcs slice gives the byte offset of each instruction, which
// callers use to rebuild exception tables and line-number tables.
//
// A conditional branch whose offset exceeds ±32767 cannot be encoded
// directly; none of the DVM's services generate methods near that size,
// so Encode reports an error rather than synthesizing an inverted-branch
// trampoline.
func Encode(insts []Inst) (code []byte, pcs []int, err error) {
	work := make([]Inst, len(insts))
	copy(work, insts)
	if code, err = Assemble(nil, work); err != nil {
		return nil, nil, err
	}
	pcs = make([]int, len(work))
	for i := range work {
		pcs[i] = work[i].PC
	}
	return code, pcs, nil
}

// Assemble is Encode in place: the promotions are applied to the list
// itself and every Inst.PC is set to the instruction's offset in the
// returned code, so that afterwards the list is exactly what Decode
// (DecodeExt, for extension opcodes) returns for that code. The code is
// a's storage (the heap's when a is nil). After an error the list is
// partly promoted and must be discarded.
func Assemble(a *Arena, work []Inst) ([]byte, error) {
	n := len(work)
	if n == 0 {
		return nil, decodeErrf(0, "cannot encode empty instruction list")
	}

	// Validate targets before sizing.
	for i := range work {
		in := &work[i]
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target >= n {
				return nil, decodeErrf(i, "instruction %d: branch target %d out of range", i, in.Target)
			}
		}
		if in.Op.IsSwitch() {
			if in.Switch == nil {
				return nil, decodeErrf(i, "instruction %d: switch without payload", i)
			}
			if in.Switch.Default < 0 || in.Switch.Default >= n {
				return nil, decodeErrf(i, "instruction %d: switch default %d out of range", i, in.Switch.Default)
			}
			for _, t := range in.Switch.Targets {
				if t < 0 || t >= n {
					return nil, decodeErrf(i, "instruction %d: switch target %d out of range", i, t)
				}
			}
			if in.Op == Lookupswitch && len(in.Switch.Keys) != len(in.Switch.Targets) {
				return nil, decodeErrf(i, "instruction %d: lookupswitch keys/targets mismatch", i)
			}
		}
	}

	// Eager operand-width promotions that do not depend on layout.
	for i := range work {
		in := &work[i]
		switch in.Op.OperandKind() {
		case KindCPU1:
			if in.Index > 0xFF {
				in.Op = LdcW
			}
		case KindLocal:
			if in.Index > 0xFF {
				in.Wide = true
			}
		case KindIinc:
			if in.Index > 0xFF || in.Const < -128 || in.Const > 127 {
				in.Wide = true
			}
		}
	}

	size := func(i int, pc int) int {
		in := &work[i]
		if in.Wide {
			if in.Op.OperandKind() == KindIinc {
				return 6
			}
			return 4
		}
		switch k := in.Op.OperandKind(); k {
		case KindTable:
			pad := (4 - ((pc + 1) % 4)) % 4
			return 1 + pad + 12 + 4*len(in.Switch.Targets)
		case KindLookup:
			pad := (4 - ((pc + 1) % 4)) % 4
			return 1 + pad + 8 + 8*len(in.Switch.Keys)
		case KindWidePfx:
			return 1
		default:
			return 1 + int(operandLen[k])
		}
	}

	// Fixpoint: lay out, then widen any overflowing goto/jsr and re-lay
	// until stable. Widening only grows offsets, so this terminates.
	for iter := 0; ; iter++ {
		pc := 0
		for i := range work {
			work[i].PC = pc
			pc += size(i, pc)
		}
		changed := false
		for i := range work {
			in := &work[i]
			k := in.Op.OperandKind()
			if k != KindBranch2 && k != KindExtCmpBr {
				continue
			}
			off := work[in.Target].PC - in.PC
			if off >= -32768 && off <= 32767 {
				continue
			}
			switch in.Op {
			case Goto:
				in.Op = GotoW
				changed = true
			case Jsr:
				in.Op = JsrW
				changed = true
			default:
				return nil, decodeErrf(in.PC, "conditional branch offset %d overflows 16 bits", off)
			}
		}
		if !changed {
			break
		}
		if iter > n {
			return nil, decodeErrf(0, "branch widening did not converge")
		}
	}

	total := work[n-1].PC + size(n-1, work[n-1].PC)
	if total > 0xFFFF {
		return nil, decodeErrf(0, "encoded method length %d exceeds 65535", total)
	}
	buf := a.Bytes(total)
	u2 := func(v uint16) { buf = binary.BigEndian.AppendUint16(buf, v) }
	u4 := func(v uint32) { buf = binary.BigEndian.AppendUint32(buf, v) }

	for i := range work {
		in := &work[i]
		if in.Wide {
			buf = append(buf, byte(Wide), byte(in.Op))
			u2(in.Index)
			if in.Op.OperandKind() == KindIinc {
				u2(uint16(int16(in.Const)))
			}
			continue
		}
		buf = append(buf, byte(in.Op))
		switch in.Op.OperandKind() {
		case KindNone:
		case KindS1:
			buf = append(buf, byte(int8(in.Const)))
		case KindS2:
			u2(uint16(int16(in.Const)))
		case KindCPU1:
			buf = append(buf, byte(in.Index))
		case KindCPU2:
			u2(in.Index)
		case KindLocal:
			buf = append(buf, byte(in.Index))
		case KindIinc:
			buf = append(buf, byte(in.Index), byte(int8(in.Const)))
		case KindBranch2:
			u2(uint16(int16(work[in.Target].PC - in.PC)))
		case KindBranch4:
			u4(uint32(int32(work[in.Target].PC - in.PC)))
		case KindIfaceRef:
			u2(in.Index)
			buf = append(buf, in.Count, 0)
		case KindAType:
			buf = append(buf, in.ArrayType)
		case KindMultiNew:
			u2(in.Index)
			buf = append(buf, in.Dims)
		case KindTable:
			for len(buf)%4 != 0 {
				buf = append(buf, 0)
			}
			u4(uint32(int32(work[in.Switch.Default].PC - in.PC)))
			u4(uint32(in.Switch.Low))
			u4(uint32(in.Switch.Low + int32(len(in.Switch.Targets)) - 1))
			for _, t := range in.Switch.Targets {
				u4(uint32(int32(work[t].PC - in.PC)))
			}
		case KindLookup:
			for len(buf)%4 != 0 {
				buf = append(buf, 0)
			}
			u4(uint32(int32(work[in.Switch.Default].PC - in.PC)))
			u4(uint32(len(in.Switch.Keys)))
			for k, key := range in.Switch.Keys {
				u4(uint32(key))
				u4(uint32(int32(work[in.Switch.Targets[k]].PC - in.PC)))
			}
		case KindExtLL:
			buf = append(buf, byte(in.Index), in.ArrayType)
		case KindExtCmpBr:
			buf = append(buf, byte(in.Index), in.ArrayType, in.Count)
			u2(uint16(int16(work[in.Target].PC - in.PC)))
		case KindExtIincLd:
			buf = append(buf, byte(in.Index), byte(int8(in.Const)))
		}
	}
	return buf, nil
}
