package bytecode

import (
	"encoding/binary"
	"fmt"
)

// Inst is one decoded instruction. Branch and switch targets are
// represented as indices into the decoded instruction slice (not byte
// offsets), so instruction lists can be spliced by rewriting services and
// re-encoded with offsets recomputed.
type Inst struct {
	Op   Opcode
	Wide bool // instruction was (or must be) prefixed with the wide opcode

	ArrayType uint8  // newarray element type code
	Dims      uint8  // multianewarray dimension count
	Count     uint8  // invokeinterface historical count operand
	Index     uint16 // constant pool index or local variable index
	Const     int32  // bipush/sipush immediate or iinc increment

	// PC is the byte offset of the instruction in the code it was decoded
	// from or last assembled into. On freshly built instructions it is
	// meaningless.
	PC int

	Target int     // branch target as an instruction index, -1 if none
	Switch *Switch // switch payload, nil for other instructions
}

// Switch is the payload of a tableswitch or lookupswitch instruction.
// Targets (and Default) are instruction indices, parallel to Keys for
// lookupswitch or implicitly Low..High for tableswitch.
type Switch struct {
	Default int
	Low     int32   // tableswitch only
	Keys    []int32 // lookupswitch only
	Targets []int
}

// String renders the instruction in a javap-like form.
func (in Inst) String() string {
	s := in.Op.Name()
	if in.Wide {
		s = "wide " + s
	}
	switch in.Op.OperandKind() {
	case KindS1, KindS2:
		return fmt.Sprintf("%s %d", s, in.Const)
	case KindCPU1, KindCPU2:
		return fmt.Sprintf("%s #%d", s, in.Index)
	case KindLocal:
		return fmt.Sprintf("%s %d", s, in.Index)
	case KindIinc:
		return fmt.Sprintf("%s %d by %d", s, in.Index, in.Const)
	case KindBranch2, KindBranch4:
		return fmt.Sprintf("%s ->%d", s, in.Target)
	case KindIfaceRef:
		return fmt.Sprintf("%s #%d count %d", s, in.Index, in.Count)
	case KindAType:
		return fmt.Sprintf("%s %d", s, in.ArrayType)
	case KindMultiNew:
		return fmt.Sprintf("%s #%d dims %d", s, in.Index, in.Dims)
	case KindTable, KindLookup:
		return fmt.Sprintf("%s default ->%d (%d arms)", s, in.Switch.Default, len(in.Switch.Targets))
	}
	return s
}

// DecodeError reports malformed bytecode. It is the error currency of the
// verifier's phase-2 (instruction integrity) checks.
type DecodeError struct {
	PC  int
	Msg string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("bytecode: pc %d: %s", e.PC, e.Msg)
}

func decodeErrf(pc int, format string, args ...any) error {
	return &DecodeError{PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// Decode parses raw method bytecode into an instruction list. It verifies
// that every opcode is assigned, operands do not run off the end, switch
// padding is canonical, and every branch/switch target lands on an
// instruction boundary — the paper's "instruction integrity" phase of
// verification. Extension (DVM native format) opcodes are rejected; use
// DecodeExt for code produced by the compilation service.
func Decode(code []byte) ([]Inst, error) {
	insts, _, err := DecodeWithIndex(nil, code, false)
	return insts, err
}

// DecodeExt parses bytecode accepting the DVM extension opcodes emitted
// by the centralized compilation service. Only the DVM client runtime
// uses this entry point.
func DecodeExt(code []byte) ([]Inst, error) {
	insts, _, err := DecodeWithIndex(nil, code, true)
	return insts, err
}

// PCIndex maps a byte offset of a method body to the index of the
// instruction that starts there. It is dense — one entry per code byte,
// holding the instruction index plus one, zero where no instruction
// starts — so exception tables and branch targets resolve by a slice
// load.
type PCIndex []uint16

// At returns the index of the instruction starting at byte offset pc.
func (x PCIndex) At(pc int) (int, bool) {
	if pc < 0 || pc >= len(x) || x[pc] == 0 {
		return 0, false
	}
	return int(x[pc]) - 1, true
}

// IndexPCs builds the PCIndex of an instruction list from its recorded
// PCs, for code of codeLen bytes, in a's storage.
func IndexPCs(a *Arena, insts []Inst, codeLen int) PCIndex {
	x := PCIndex(a.Uint16s(codeLen))
	for i := range insts {
		x[insts[i].PC] = uint16(i + 1)
	}
	return x
}

// operandLen is the operand byte count of each fixed-length encoding
// kind; the switches and the wide prefix are sized from the code itself.
var operandLen = [...]int8{
	KindNone: 0, KindS1: 1, KindS2: 2, KindCPU1: 1, KindCPU2: 2, KindLocal: 1,
	KindIinc: 2, KindBranch2: 2, KindBranch4: 4, KindIfaceRef: 4, KindAType: 1,
	KindMultiNew: 3, KindExtLL: 2, KindExtCmpBr: 5, KindExtIincLd: 2, KindInvalid: 0,
	KindTable: -1, KindLookup: -1, KindWidePfx: -1,
}

// countInsts sizes the instruction slice for DecodeWithIndex without
// validating anything: exact for well-formed code, and at least what the
// decoder appends before it stops with an error otherwise.
func countInsts(code []byte) int {
	n := 0
	for pc := 0; pc < len(code); n++ {
		kind := ops[code[pc]].kind
		if l := operandLen[kind]; l >= 0 {
			pc += 1 + int(l)
			continue
		}
		if kind == KindWidePfx {
			if pc+1 < len(code) && Opcode(code[pc+1]) == Iinc {
				pc += 6
			} else {
				pc += 4
			}
			continue
		}
		hdr := (pc + 4) &^ 3 // operands start at the next 4-byte boundary
		var arms int64
		if kind == KindTable {
			if hdr+12 > len(code) {
				break
			}
			low := int32(binary.BigEndian.Uint32(code[hdr+4:]))
			high := int32(binary.BigEndian.Uint32(code[hdr+8:]))
			arms = 4*(int64(high)-int64(low)+1) + 12
		} else {
			if hdr+8 > len(code) {
				break
			}
			arms = 8*int64(int32(binary.BigEndian.Uint32(code[hdr+4:]))) + 8
		}
		if arms < 0 || arms > int64(len(code)) {
			break
		}
		pc = hdr + int(arms)
	}
	return n
}

// DecodeWithIndex is Decode (or, with allowExt, DecodeExt) that also
// returns the PC index it resolved branch targets through. The list and
// the index are a's storage (the heap's when a is nil) and live as long
// as it serves the class; switch payloads are always the heap's.
func DecodeWithIndex(a *Arena, code []byte, allowExt bool) ([]Inst, PCIndex, error) {
	if len(code) == 0 {
		return nil, nil, decodeErrf(0, "empty code")
	}
	if len(code) > 0xFFFF {
		// The exception table and branch encodings cap methods at 64 KiB.
		return nil, nil, decodeErrf(0, "code length %d exceeds 65535", len(code))
	}
	// Branch and switch targets are recorded as absolute byte offsets
	// while decoding and resolved to instruction indices afterwards.
	insts := a.Insts(countInsts(code))

	pc := 0
	for pc < len(code) {
		start := pc
		op := Opcode(code[pc])
		pc++
		in := Inst{Op: op, PC: start, Target: -1}
		if op == Wide {
			if pc >= len(code) {
				return nil, nil, decodeErrf(start, "truncated wide prefix")
			}
			in.Op = Opcode(code[pc])
			in.Wide = true
			pc++
			switch in.Op.OperandKind() {
			case KindLocal:
				if pc+2 > len(code) {
					return nil, nil, decodeErrf(start, "truncated wide %s", in.Op.Name())
				}
				in.Index = binary.BigEndian.Uint16(code[pc:])
				pc += 2
			case KindIinc:
				if pc+4 > len(code) {
					return nil, nil, decodeErrf(start, "truncated wide iinc")
				}
				in.Index = binary.BigEndian.Uint16(code[pc:])
				in.Const = int32(int16(binary.BigEndian.Uint16(code[pc+2:])))
				pc += 4
			default:
				return nil, nil, decodeErrf(start, "wide prefix on %s", in.Op.Name())
			}
			insts = append(insts, in)
			continue
		}
		if op.IsExtension() && !allowExt {
			return nil, nil, decodeErrf(start, "extension opcode 0x%02x in strict JVM code", uint8(op))
		}
		info := &ops[op]
		switch info.kind {
		case KindInvalid:
			return nil, nil, decodeErrf(start, "unassigned opcode 0x%02x", uint8(op))
		case KindNone:
		case KindS1:
			if pc+1 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Const = int32(int8(code[pc]))
			pc++
		case KindS2:
			if pc+2 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Const = int32(int16(binary.BigEndian.Uint16(code[pc:])))
			pc += 2
		case KindCPU1:
			if pc+1 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Index = uint16(code[pc])
			pc++
		case KindCPU2:
			if pc+2 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Index = binary.BigEndian.Uint16(code[pc:])
			pc += 2
		case KindLocal:
			if pc+1 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Index = uint16(code[pc])
			pc++
		case KindIinc:
			if pc+2 > len(code) {
				return nil, nil, decodeErrf(start, "truncated iinc")
			}
			in.Index = uint16(code[pc])
			in.Const = int32(int8(code[pc+1]))
			pc += 2
		case KindBranch2:
			if pc+2 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Target = start + int(int16(binary.BigEndian.Uint16(code[pc:])))
			pc += 2
		case KindBranch4:
			if pc+4 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Target = start + int(int32(binary.BigEndian.Uint32(code[pc:])))
			pc += 4
		case KindIfaceRef:
			if pc+4 > len(code) {
				return nil, nil, decodeErrf(start, "truncated invokeinterface")
			}
			in.Index = binary.BigEndian.Uint16(code[pc:])
			in.Count = code[pc+2]
			if code[pc+3] != 0 {
				return nil, nil, decodeErrf(start, "invokeinterface fourth operand must be zero")
			}
			pc += 4
		case KindAType:
			if pc+1 > len(code) {
				return nil, nil, decodeErrf(start, "truncated newarray")
			}
			in.ArrayType = code[pc]
			if in.ArrayType < TBoolean || in.ArrayType > TLong {
				return nil, nil, decodeErrf(start, "newarray: bad element type %d", in.ArrayType)
			}
			pc++
		case KindMultiNew:
			if pc+3 > len(code) {
				return nil, nil, decodeErrf(start, "truncated multianewarray")
			}
			in.Index = binary.BigEndian.Uint16(code[pc:])
			in.Dims = code[pc+2]
			if in.Dims == 0 {
				return nil, nil, decodeErrf(start, "multianewarray with zero dimensions")
			}
			pc += 3
		case KindTable:
			pad := (4 - (pc % 4)) % 4
			for i := 0; i < pad; i++ {
				if pc >= len(code) {
					return nil, nil, decodeErrf(start, "truncated tableswitch padding")
				}
				if code[pc] != 0 {
					return nil, nil, decodeErrf(start, "non-zero tableswitch padding")
				}
				pc++
			}
			if pc+12 > len(code) {
				return nil, nil, decodeErrf(start, "truncated tableswitch header")
			}
			def := int(int32(binary.BigEndian.Uint32(code[pc:])))
			low := int32(binary.BigEndian.Uint32(code[pc+4:]))
			high := int32(binary.BigEndian.Uint32(code[pc+8:]))
			pc += 12
			if low > high {
				return nil, nil, decodeErrf(start, "tableswitch low %d > high %d", low, high)
			}
			n := int(int64(high) - int64(low) + 1)
			if pc+4*n > len(code) {
				return nil, nil, decodeErrf(start, "truncated tableswitch arms (%d)", n)
			}
			sw := &Switch{Low: low, Default: start + def, Targets: make([]int, n)}
			for i := range sw.Targets {
				sw.Targets[i] = start + int(int32(binary.BigEndian.Uint32(code[pc:])))
				pc += 4
			}
			in.Switch = sw
		case KindLookup:
			pad := (4 - (pc % 4)) % 4
			for i := 0; i < pad; i++ {
				if pc >= len(code) {
					return nil, nil, decodeErrf(start, "truncated lookupswitch padding")
				}
				if code[pc] != 0 {
					return nil, nil, decodeErrf(start, "non-zero lookupswitch padding")
				}
				pc++
			}
			if pc+8 > len(code) {
				return nil, nil, decodeErrf(start, "truncated lookupswitch header")
			}
			def := int(int32(binary.BigEndian.Uint32(code[pc:])))
			n := int(int32(binary.BigEndian.Uint32(code[pc+4:])))
			pc += 8
			if n < 0 || pc+8*n > len(code) {
				return nil, nil, decodeErrf(start, "truncated lookupswitch pairs (%d)", n)
			}
			sw := &Switch{Default: start + def}
			if n > 0 {
				sw.Keys, sw.Targets = make([]int32, n), make([]int, n)
			}
			var prev int64 = -1 << 62
			for i := 0; i < n; i++ {
				key := int32(binary.BigEndian.Uint32(code[pc:]))
				if int64(key) <= prev {
					return nil, nil, decodeErrf(start, "lookupswitch keys not strictly increasing")
				}
				prev = int64(key)
				sw.Keys[i] = key
				sw.Targets[i] = start + int(int32(binary.BigEndian.Uint32(code[pc+4:])))
				pc += 8
			}
			in.Switch = sw
		case KindExtLL:
			if pc+2 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Index = uint16(code[pc])
			in.ArrayType = code[pc+1]
			pc += 2
		case KindExtCmpBr:
			if pc+5 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Index = uint16(code[pc])
			in.ArrayType = code[pc+1]
			in.Count = code[pc+2]
			if in.Count > 5 {
				return nil, nil, decodeErrf(start, "ext_cmp_branch: bad condition %d", in.Count)
			}
			in.Target = start + int(int16(binary.BigEndian.Uint16(code[pc+3:])))
			pc += 5
		case KindExtIincLd:
			if pc+2 > len(code) {
				return nil, nil, decodeErrf(start, "truncated %s", info.name)
			}
			in.Index = uint16(code[pc])
			in.Const = int32(int8(code[pc+1]))
			pc += 2
		case KindWidePfx:
			// handled above
		}
		insts = append(insts, in)
	}

	// Resolve targets in ascending instruction order, a switch's default
	// before its arms, so that malformed code reports the same first error
	// on every decode: rejected classes are attested byte for byte.
	idx := IndexPCs(a, insts, len(code))
	resolve := func(in *Inst, target *int) error {
		t, ok := idx.At(*target)
		if !ok {
			return decodeErrf(in.PC, "branch target %d is not an instruction boundary", *target)
		}
		*target = t
		return nil
	}
	for i := range insts {
		in := &insts[i]
		if sw := in.Switch; sw != nil {
			if err := resolve(in, &sw.Default); err != nil {
				return nil, nil, err
			}
			for k := range sw.Targets {
				if err := resolve(in, &sw.Targets[k]); err != nil {
					return nil, nil, err
				}
			}
		} else if in.Op.IsBranch() {
			if err := resolve(in, &in.Target); err != nil {
				return nil, nil, err
			}
		}
	}
	return insts, idx, nil
}
