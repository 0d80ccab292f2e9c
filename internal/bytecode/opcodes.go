// Package bytecode implements the JVM instruction set: an opcode table
// with operand formats and stack metadata, a decoder from raw Code
// attribute bytes to a structured instruction list, an encoder that
// re-serializes instruction lists (recomputing branch offsets and switch
// padding), and method/field descriptor parsing.
//
// Every DVM service that inspects or transforms code — the verifier's
// instruction-integrity and dataflow phases, the security and audit
// rewriters, the repartitioning optimizer, the AOT compiler, and the
// client interpreter — works on this package's Inst representation.
package bytecode

// Opcode is a JVM bytecode operation code.
type Opcode uint8

// The standard JVM opcodes (JVM spec chapter 6, Java 1.2 era).
const (
	Nop             Opcode = 0x00
	AconstNull      Opcode = 0x01
	IconstM1        Opcode = 0x02
	Iconst0         Opcode = 0x03
	Iconst1         Opcode = 0x04
	Iconst2         Opcode = 0x05
	Iconst3         Opcode = 0x06
	Iconst4         Opcode = 0x07
	Iconst5         Opcode = 0x08
	Lconst0         Opcode = 0x09
	Lconst1         Opcode = 0x0a
	Fconst0         Opcode = 0x0b
	Fconst1         Opcode = 0x0c
	Fconst2         Opcode = 0x0d
	Dconst0         Opcode = 0x0e
	Dconst1         Opcode = 0x0f
	Bipush          Opcode = 0x10
	Sipush          Opcode = 0x11
	Ldc             Opcode = 0x12
	LdcW            Opcode = 0x13
	Ldc2W           Opcode = 0x14
	Iload           Opcode = 0x15
	Lload           Opcode = 0x16
	Fload           Opcode = 0x17
	Dload           Opcode = 0x18
	Aload           Opcode = 0x19
	Iload0          Opcode = 0x1a
	Iload1          Opcode = 0x1b
	Iload2          Opcode = 0x1c
	Iload3          Opcode = 0x1d
	Lload0          Opcode = 0x1e
	Lload1          Opcode = 0x1f
	Lload2          Opcode = 0x20
	Lload3          Opcode = 0x21
	Fload0          Opcode = 0x22
	Fload1          Opcode = 0x23
	Fload2          Opcode = 0x24
	Fload3          Opcode = 0x25
	Dload0          Opcode = 0x26
	Dload1          Opcode = 0x27
	Dload2          Opcode = 0x28
	Dload3          Opcode = 0x29
	Aload0          Opcode = 0x2a
	Aload1          Opcode = 0x2b
	Aload2          Opcode = 0x2c
	Aload3          Opcode = 0x2d
	Iaload          Opcode = 0x2e
	Laload          Opcode = 0x2f
	Faload          Opcode = 0x30
	Daload          Opcode = 0x31
	Aaload          Opcode = 0x32
	Baload          Opcode = 0x33
	Caload          Opcode = 0x34
	Saload          Opcode = 0x35
	Istore          Opcode = 0x36
	Lstore          Opcode = 0x37
	Fstore          Opcode = 0x38
	Dstore          Opcode = 0x39
	Astore          Opcode = 0x3a
	Istore0         Opcode = 0x3b
	Istore1         Opcode = 0x3c
	Istore2         Opcode = 0x3d
	Istore3         Opcode = 0x3e
	Lstore0         Opcode = 0x3f
	Lstore1         Opcode = 0x40
	Lstore2         Opcode = 0x41
	Lstore3         Opcode = 0x42
	Fstore0         Opcode = 0x43
	Fstore1         Opcode = 0x44
	Fstore2         Opcode = 0x45
	Fstore3         Opcode = 0x46
	Dstore0         Opcode = 0x47
	Dstore1         Opcode = 0x48
	Dstore2         Opcode = 0x49
	Dstore3         Opcode = 0x4a
	Astore0         Opcode = 0x4b
	Astore1         Opcode = 0x4c
	Astore2         Opcode = 0x4d
	Astore3         Opcode = 0x4e
	Iastore         Opcode = 0x4f
	Lastore         Opcode = 0x50
	Fastore         Opcode = 0x51
	Dastore         Opcode = 0x52
	Aastore         Opcode = 0x53
	Bastore         Opcode = 0x54
	Castore         Opcode = 0x55
	Sastore         Opcode = 0x56
	Pop             Opcode = 0x57
	Pop2            Opcode = 0x58
	Dup             Opcode = 0x59
	DupX1           Opcode = 0x5a
	DupX2           Opcode = 0x5b
	Dup2            Opcode = 0x5c
	Dup2X1          Opcode = 0x5d
	Dup2X2          Opcode = 0x5e
	Swap            Opcode = 0x5f
	Iadd            Opcode = 0x60
	Ladd            Opcode = 0x61
	Fadd            Opcode = 0x62
	Dadd            Opcode = 0x63
	Isub            Opcode = 0x64
	Lsub            Opcode = 0x65
	Fsub            Opcode = 0x66
	Dsub            Opcode = 0x67
	Imul            Opcode = 0x68
	Lmul            Opcode = 0x69
	Fmul            Opcode = 0x6a
	Dmul            Opcode = 0x6b
	Idiv            Opcode = 0x6c
	Ldiv            Opcode = 0x6d
	Fdiv            Opcode = 0x6e
	Ddiv            Opcode = 0x6f
	Irem            Opcode = 0x70
	Lrem            Opcode = 0x71
	Frem            Opcode = 0x72
	Drem            Opcode = 0x73
	Ineg            Opcode = 0x74
	Lneg            Opcode = 0x75
	Fneg            Opcode = 0x76
	Dneg            Opcode = 0x77
	Ishl            Opcode = 0x78
	Lshl            Opcode = 0x79
	Ishr            Opcode = 0x7a
	Lshr            Opcode = 0x7b
	Iushr           Opcode = 0x7c
	Lushr           Opcode = 0x7d
	Iand            Opcode = 0x7e
	Land            Opcode = 0x7f
	Ior             Opcode = 0x80
	Lor             Opcode = 0x81
	Ixor            Opcode = 0x82
	Lxor            Opcode = 0x83
	Iinc            Opcode = 0x84
	I2l             Opcode = 0x85
	I2f             Opcode = 0x86
	I2d             Opcode = 0x87
	L2i             Opcode = 0x88
	L2f             Opcode = 0x89
	L2d             Opcode = 0x8a
	F2i             Opcode = 0x8b
	F2l             Opcode = 0x8c
	F2d             Opcode = 0x8d
	D2i             Opcode = 0x8e
	D2l             Opcode = 0x8f
	D2f             Opcode = 0x90
	I2b             Opcode = 0x91
	I2c             Opcode = 0x92
	I2s             Opcode = 0x93
	Lcmp            Opcode = 0x94
	Fcmpl           Opcode = 0x95
	Fcmpg           Opcode = 0x96
	Dcmpl           Opcode = 0x97
	Dcmpg           Opcode = 0x98
	Ifeq            Opcode = 0x99
	Ifne            Opcode = 0x9a
	Iflt            Opcode = 0x9b
	Ifge            Opcode = 0x9c
	Ifgt            Opcode = 0x9d
	Ifle            Opcode = 0x9e
	IfIcmpeq        Opcode = 0x9f
	IfIcmpne        Opcode = 0xa0
	IfIcmplt        Opcode = 0xa1
	IfIcmpge        Opcode = 0xa2
	IfIcmpgt        Opcode = 0xa3
	IfIcmple        Opcode = 0xa4
	IfAcmpeq        Opcode = 0xa5
	IfAcmpne        Opcode = 0xa6
	Goto            Opcode = 0xa7
	Jsr             Opcode = 0xa8
	Ret             Opcode = 0xa9
	Tableswitch     Opcode = 0xaa
	Lookupswitch    Opcode = 0xab
	Ireturn         Opcode = 0xac
	Lreturn         Opcode = 0xad
	Freturn         Opcode = 0xae
	Dreturn         Opcode = 0xaf
	Areturn         Opcode = 0xb0
	Return          Opcode = 0xb1
	Getstatic       Opcode = 0xb2
	Putstatic       Opcode = 0xb3
	Getfield        Opcode = 0xb4
	Putfield        Opcode = 0xb5
	Invokevirtual   Opcode = 0xb6
	Invokespecial   Opcode = 0xb7
	Invokestatic    Opcode = 0xb8
	Invokeinterface Opcode = 0xb9
	New             Opcode = 0xbb
	Newarray        Opcode = 0xbc
	Anewarray       Opcode = 0xbd
	Arraylength     Opcode = 0xbe
	Athrow          Opcode = 0xbf
	Checkcast       Opcode = 0xc0
	Instanceof      Opcode = 0xc1
	Monitorenter    Opcode = 0xc2
	Monitorexit     Opcode = 0xc3
	Wide            Opcode = 0xc4
	Multianewarray  Opcode = 0xc5
	Ifnull          Opcode = 0xc6
	Ifnonnull       Opcode = 0xc7
	GotoW           Opcode = 0xc8
	JsrW            Opcode = 0xc9
)

// Extension opcodes: the DVM client runtime's "native format" targeted by
// the centralized compilation service (§3.4 of the paper). The service
// translates standard bytecode into this quickened form ahead of time,
// per client architecture; a strict JVM never sees these (Decode rejects
// them — only DecodeExt, used by the DVM client runtime, accepts them).
const (
	// ExtLoadAdd fuses `iload a; iload b; iadd` into one dispatch.
	// Operands: u8 a (Inst.Index), u8 b (Inst.ArrayType).
	ExtLoadAdd Opcode = 0xe0
	// ExtLoadMul fuses `iload a; iload b; imul`.
	ExtLoadMul Opcode = 0xe1
	// ExtCmpBranch fuses `iload a; iload b; if_icmp<cond> target`.
	// Operands: u8 a (Index), u8 b (ArrayType), u8 cond (Count, 0..5 for
	// eq/ne/lt/ge/gt/le), s2 branch offset (Target).
	ExtCmpBranch Opcode = 0xe2
	// ExtIincLoad fuses `iinc a, k; iload a`. Operands: u8 a (Index),
	// s1 k (Const).
	ExtIincLoad Opcode = 0xe3
)

// IsExtension reports whether op is a DVM native-format opcode.
func (op Opcode) IsExtension() bool { return op >= ExtLoadAdd && op <= ExtIincLoad }

// Kind classifies an opcode's operand encoding.
type Kind uint8

// Operand encoding kinds.
const (
	KindNone      Kind = iota // no operands
	KindS1                    // signed byte immediate (bipush)
	KindS2                    // signed short immediate (sipush)
	KindCPU1                  // 1-byte constant pool index (ldc)
	KindCPU2                  // 2-byte constant pool index
	KindLocal                 // 1-byte local variable index (2-byte under wide)
	KindIinc                  // local index + signed const (widened under wide)
	KindBranch2               // 2-byte signed branch offset
	KindBranch4               // 4-byte signed branch offset
	KindIfaceRef              // invokeinterface: cp index + count + 0
	KindAType                 // newarray: primitive array type byte
	KindMultiNew              // multianewarray: cp index + dimension count
	KindTable                 // tableswitch
	KindLookup                // lookupswitch
	KindWidePfx               // the wide prefix itself
	KindExtLL                 // extension: two u8 local indices
	KindExtCmpBr              // extension: two u8 locals + cond + s2 offset
	KindExtIincLd             // extension: u8 local + s1 const
	KindInvalid               // unassigned opcode
)

// opInfo describes one opcode's static properties.
type opInfo struct {
	name string
	kind Kind
	// pop/push are the fixed operand-stack slot deltas; -1 marks ops whose
	// effect depends on a descriptor or is polymorphic (invokes, field ops,
	// dup/swap family, multianewarray).
	pop, push int8
}

var ops = buildOpTable()

func set(t *[256]opInfo, op Opcode, name string, kind Kind, pop, push int8) {
	t[op] = opInfo{name: name, kind: kind, pop: pop, push: push}
}

func buildOpTable() [256]opInfo {
	var t [256]opInfo
	for i := range t {
		t[i] = opInfo{name: "", kind: KindInvalid}
	}
	set(&t, Nop, "nop", KindNone, 0, 0)
	set(&t, AconstNull, "aconst_null", KindNone, 0, 1)
	for op, n := IconstM1, 0; op <= Iconst5; op, n = op+1, n+1 {
		set(&t, op, "iconst_"+[]string{"m1", "0", "1", "2", "3", "4", "5"}[n], KindNone, 0, 1)
	}
	set(&t, Lconst0, "lconst_0", KindNone, 0, 2)
	set(&t, Lconst1, "lconst_1", KindNone, 0, 2)
	set(&t, Fconst0, "fconst_0", KindNone, 0, 1)
	set(&t, Fconst1, "fconst_1", KindNone, 0, 1)
	set(&t, Fconst2, "fconst_2", KindNone, 0, 1)
	set(&t, Dconst0, "dconst_0", KindNone, 0, 2)
	set(&t, Dconst1, "dconst_1", KindNone, 0, 2)
	set(&t, Bipush, "bipush", KindS1, 0, 1)
	set(&t, Sipush, "sipush", KindS2, 0, 1)
	set(&t, Ldc, "ldc", KindCPU1, 0, 1)
	set(&t, LdcW, "ldc_w", KindCPU2, 0, 1)
	set(&t, Ldc2W, "ldc2_w", KindCPU2, 0, 2)
	set(&t, Iload, "iload", KindLocal, 0, 1)
	set(&t, Lload, "lload", KindLocal, 0, 2)
	set(&t, Fload, "fload", KindLocal, 0, 1)
	set(&t, Dload, "dload", KindLocal, 0, 2)
	set(&t, Aload, "aload", KindLocal, 0, 1)
	for i := 0; i < 4; i++ {
		d := []string{"0", "1", "2", "3"}[i]
		set(&t, Iload0+Opcode(i), "iload_"+d, KindNone, 0, 1)
		set(&t, Lload0+Opcode(i), "lload_"+d, KindNone, 0, 2)
		set(&t, Fload0+Opcode(i), "fload_"+d, KindNone, 0, 1)
		set(&t, Dload0+Opcode(i), "dload_"+d, KindNone, 0, 2)
		set(&t, Aload0+Opcode(i), "aload_"+d, KindNone, 0, 1)
	}
	set(&t, Iaload, "iaload", KindNone, 2, 1)
	set(&t, Laload, "laload", KindNone, 2, 2)
	set(&t, Faload, "faload", KindNone, 2, 1)
	set(&t, Daload, "daload", KindNone, 2, 2)
	set(&t, Aaload, "aaload", KindNone, 2, 1)
	set(&t, Baload, "baload", KindNone, 2, 1)
	set(&t, Caload, "caload", KindNone, 2, 1)
	set(&t, Saload, "saload", KindNone, 2, 1)
	set(&t, Istore, "istore", KindLocal, 1, 0)
	set(&t, Lstore, "lstore", KindLocal, 2, 0)
	set(&t, Fstore, "fstore", KindLocal, 1, 0)
	set(&t, Dstore, "dstore", KindLocal, 2, 0)
	set(&t, Astore, "astore", KindLocal, 1, 0)
	for i := 0; i < 4; i++ {
		d := []string{"0", "1", "2", "3"}[i]
		set(&t, Istore0+Opcode(i), "istore_"+d, KindNone, 1, 0)
		set(&t, Lstore0+Opcode(i), "lstore_"+d, KindNone, 2, 0)
		set(&t, Fstore0+Opcode(i), "fstore_"+d, KindNone, 1, 0)
		set(&t, Dstore0+Opcode(i), "dstore_"+d, KindNone, 2, 0)
		set(&t, Astore0+Opcode(i), "astore_"+d, KindNone, 1, 0)
	}
	set(&t, Iastore, "iastore", KindNone, 3, 0)
	set(&t, Lastore, "lastore", KindNone, 4, 0)
	set(&t, Fastore, "fastore", KindNone, 3, 0)
	set(&t, Dastore, "dastore", KindNone, 4, 0)
	set(&t, Aastore, "aastore", KindNone, 3, 0)
	set(&t, Bastore, "bastore", KindNone, 3, 0)
	set(&t, Castore, "castore", KindNone, 3, 0)
	set(&t, Sastore, "sastore", KindNone, 3, 0)
	set(&t, Pop, "pop", KindNone, 1, 0)
	set(&t, Pop2, "pop2", KindNone, 2, 0)
	set(&t, Dup, "dup", KindNone, 1, 2)
	set(&t, DupX1, "dup_x1", KindNone, 2, 3)
	set(&t, DupX2, "dup_x2", KindNone, 3, 4)
	set(&t, Dup2, "dup2", KindNone, 2, 4)
	set(&t, Dup2X1, "dup2_x1", KindNone, 3, 5)
	set(&t, Dup2X2, "dup2_x2", KindNone, 4, 6)
	set(&t, Swap, "swap", KindNone, 2, 2)
	bin := func(op Opcode, name string, wide bool) {
		if wide {
			set(&t, op, name, KindNone, 4, 2)
		} else {
			set(&t, op, name, KindNone, 2, 1)
		}
	}
	bin(Iadd, "iadd", false)
	bin(Ladd, "ladd", true)
	bin(Fadd, "fadd", false)
	bin(Dadd, "dadd", true)
	bin(Isub, "isub", false)
	bin(Lsub, "lsub", true)
	bin(Fsub, "fsub", false)
	bin(Dsub, "dsub", true)
	bin(Imul, "imul", false)
	bin(Lmul, "lmul", true)
	bin(Fmul, "fmul", false)
	bin(Dmul, "dmul", true)
	bin(Idiv, "idiv", false)
	bin(Ldiv, "ldiv", true)
	bin(Fdiv, "fdiv", false)
	bin(Ddiv, "ddiv", true)
	bin(Irem, "irem", false)
	bin(Lrem, "lrem", true)
	bin(Frem, "frem", false)
	bin(Drem, "drem", true)
	set(&t, Ineg, "ineg", KindNone, 1, 1)
	set(&t, Lneg, "lneg", KindNone, 2, 2)
	set(&t, Fneg, "fneg", KindNone, 1, 1)
	set(&t, Dneg, "dneg", KindNone, 2, 2)
	set(&t, Ishl, "ishl", KindNone, 2, 1)
	set(&t, Lshl, "lshl", KindNone, 3, 2)
	set(&t, Ishr, "ishr", KindNone, 2, 1)
	set(&t, Lshr, "lshr", KindNone, 3, 2)
	set(&t, Iushr, "iushr", KindNone, 2, 1)
	set(&t, Lushr, "lushr", KindNone, 3, 2)
	bin(Iand, "iand", false)
	bin(Land, "land", true)
	bin(Ior, "ior", false)
	bin(Lor, "lor", true)
	bin(Ixor, "ixor", false)
	bin(Lxor, "lxor", true)
	set(&t, Iinc, "iinc", KindIinc, 0, 0)
	set(&t, I2l, "i2l", KindNone, 1, 2)
	set(&t, I2f, "i2f", KindNone, 1, 1)
	set(&t, I2d, "i2d", KindNone, 1, 2)
	set(&t, L2i, "l2i", KindNone, 2, 1)
	set(&t, L2f, "l2f", KindNone, 2, 1)
	set(&t, L2d, "l2d", KindNone, 2, 2)
	set(&t, F2i, "f2i", KindNone, 1, 1)
	set(&t, F2l, "f2l", KindNone, 1, 2)
	set(&t, F2d, "f2d", KindNone, 1, 2)
	set(&t, D2i, "d2i", KindNone, 2, 1)
	set(&t, D2l, "d2l", KindNone, 2, 2)
	set(&t, D2f, "d2f", KindNone, 2, 1)
	set(&t, I2b, "i2b", KindNone, 1, 1)
	set(&t, I2c, "i2c", KindNone, 1, 1)
	set(&t, I2s, "i2s", KindNone, 1, 1)
	set(&t, Lcmp, "lcmp", KindNone, 4, 1)
	set(&t, Fcmpl, "fcmpl", KindNone, 2, 1)
	set(&t, Fcmpg, "fcmpg", KindNone, 2, 1)
	set(&t, Dcmpl, "dcmpl", KindNone, 4, 1)
	set(&t, Dcmpg, "dcmpg", KindNone, 4, 1)
	cond1 := []string{"ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle"}
	for i, n := range cond1 {
		set(&t, Ifeq+Opcode(i), n, KindBranch2, 1, 0)
	}
	cond2 := []string{"if_icmpeq", "if_icmpne", "if_icmplt", "if_icmpge", "if_icmpgt", "if_icmple", "if_acmpeq", "if_acmpne"}
	for i, n := range cond2 {
		set(&t, IfIcmpeq+Opcode(i), n, KindBranch2, 2, 0)
	}
	set(&t, Goto, "goto", KindBranch2, 0, 0)
	set(&t, Jsr, "jsr", KindBranch2, 0, 1)
	set(&t, Ret, "ret", KindLocal, 0, 0)
	set(&t, Tableswitch, "tableswitch", KindTable, 1, 0)
	set(&t, Lookupswitch, "lookupswitch", KindLookup, 1, 0)
	set(&t, Ireturn, "ireturn", KindNone, 1, 0)
	set(&t, Lreturn, "lreturn", KindNone, 2, 0)
	set(&t, Freturn, "freturn", KindNone, 1, 0)
	set(&t, Dreturn, "dreturn", KindNone, 2, 0)
	set(&t, Areturn, "areturn", KindNone, 1, 0)
	set(&t, Return, "return", KindNone, 0, 0)
	set(&t, Getstatic, "getstatic", KindCPU2, -1, -1)
	set(&t, Putstatic, "putstatic", KindCPU2, -1, -1)
	set(&t, Getfield, "getfield", KindCPU2, -1, -1)
	set(&t, Putfield, "putfield", KindCPU2, -1, -1)
	set(&t, Invokevirtual, "invokevirtual", KindCPU2, -1, -1)
	set(&t, Invokespecial, "invokespecial", KindCPU2, -1, -1)
	set(&t, Invokestatic, "invokestatic", KindCPU2, -1, -1)
	set(&t, Invokeinterface, "invokeinterface", KindIfaceRef, -1, -1)
	set(&t, New, "new", KindCPU2, 0, 1)
	set(&t, Newarray, "newarray", KindAType, 1, 1)
	set(&t, Anewarray, "anewarray", KindCPU2, 1, 1)
	set(&t, Arraylength, "arraylength", KindNone, 1, 1)
	set(&t, Athrow, "athrow", KindNone, 1, 0)
	set(&t, Checkcast, "checkcast", KindCPU2, 1, 1)
	set(&t, Instanceof, "instanceof", KindCPU2, 1, 1)
	set(&t, Monitorenter, "monitorenter", KindNone, 1, 0)
	set(&t, Monitorexit, "monitorexit", KindNone, 1, 0)
	set(&t, Wide, "wide", KindWidePfx, 0, 0)
	set(&t, Multianewarray, "multianewarray", KindMultiNew, -1, -1)
	set(&t, Ifnull, "ifnull", KindBranch2, 1, 0)
	set(&t, Ifnonnull, "ifnonnull", KindBranch2, 1, 0)
	set(&t, GotoW, "goto_w", KindBranch4, 0, 0)
	set(&t, JsrW, "jsr_w", KindBranch4, 0, 1)
	set(&t, ExtLoadAdd, "ext_load_add", KindExtLL, 0, 1)
	set(&t, ExtLoadMul, "ext_load_mul", KindExtLL, 0, 1)
	set(&t, ExtCmpBranch, "ext_cmp_branch", KindExtCmpBr, 0, 0)
	set(&t, ExtIincLoad, "ext_iinc_load", KindExtIincLd, 0, 1)
	return t
}

// Name returns the mnemonic for op, or "" for unassigned opcodes.
func (op Opcode) Name() string { return ops[op].name }

// Valid reports whether op is an assigned JVM opcode.
func (op Opcode) Valid() bool { return ops[op].kind != KindInvalid }

// OperandKind returns op's operand encoding classification.
func (op Opcode) OperandKind() Kind { return ops[op].kind }

// IsBranch reports whether op transfers control to an encoded target
// (conditional branches, goto, jsr, and their wide forms). Switches are
// reported separately by IsSwitch.
func (op Opcode) IsBranch() bool {
	k := ops[op].kind
	return k == KindBranch2 || k == KindBranch4 || k == KindExtCmpBr
}

// IsSwitch reports whether op is tableswitch or lookupswitch.
func (op Opcode) IsSwitch() bool { return op == Tableswitch || op == Lookupswitch }

// IsReturn reports whether op returns from the current method.
func (op Opcode) IsReturn() bool { return op >= Ireturn && op <= Return }

// EndsFlow reports whether control never falls through op to the next
// instruction (returns, athrow, goto, ret, switches).
func (op Opcode) EndsFlow() bool {
	return op.IsReturn() || op == Athrow || op == Goto || op == GotoW ||
		op == Ret || op.IsSwitch()
}

// IsInvoke reports whether op is a method invocation.
func (op Opcode) IsInvoke() bool {
	return op == Invokevirtual || op == Invokespecial || op == Invokestatic || op == Invokeinterface
}

// IsFieldAccess reports whether op reads or writes a field.
func (op Opcode) IsFieldAccess() bool {
	return op == Getstatic || op == Putstatic || op == Getfield || op == Putfield
}

// Primitive array type codes for the newarray instruction.
const (
	TBoolean = 4
	TChar    = 5
	TFloat   = 6
	TDouble  = 7
	TByte    = 8
	TShort   = 9
	TInt     = 10
	TLong    = 11
)
