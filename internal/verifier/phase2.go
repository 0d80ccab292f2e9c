package verifier

import (
	"fmt"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
)

// phase2 checks instruction integrity for one method: every opcode is
// assigned, operands stay in bounds, branch targets land on instruction
// boundaries (all enforced by bytecode.Decode), and additionally that
// every constant-pool operand has the tag its instruction requires, local
// variable indices fit max_locals, and the exception table is sane.
//
// It reads the method's shared decoded form (rewrite.DecodeMethod), which
// phase 3, Instrument and every later filter then reuse — the
// single-parse structure the proxy relies on.
func phase2(cf *classfile.ClassFile, m *classfile.Member, ed *rewrite.MethodEditor, census *Census) error {
	fail := func(pc int, format string, args ...any) error {
		return &Error{Phase: 2, Class: cf.Name(), Method: cf.MemberName(m) + cf.MemberDescriptor(m),
			Msg: fmt.Sprintf("pc %d: ", pc) + fmt.Sprintf(format, args...)}
	}
	pool := cf.Pool
	code, insts := ed.Code(), ed.Insts
	census.Phase2 += len(insts) // decode validated each instruction

	for i := range insts {
		in := &insts[i]
		switch in.Op.OperandKind() {
		case bytecode.KindCPU1, bytecode.KindCPU2:
			census.Phase2++
			tag := pool.Tag(in.Index)
			switch in.Op {
			case bytecode.Ldc, bytecode.LdcW:
				switch tag {
				case classfile.TagInteger, classfile.TagFloat, classfile.TagString:
				default:
					return fail(in.PC, "ldc operand %d has tag %s", in.Index, tag)
				}
			case bytecode.Ldc2W:
				if tag != classfile.TagLong && tag != classfile.TagDouble {
					return fail(in.PC, "ldc2_w operand %d has tag %s", in.Index, tag)
				}
			case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
				if tag != classfile.TagFieldref {
					return fail(in.PC, "%s operand %d has tag %s", in.Op.Name(), in.Index, tag)
				}
			case bytecode.Invokevirtual, bytecode.Invokestatic:
				if tag != classfile.TagMethodref {
					return fail(in.PC, "%s operand %d has tag %s", in.Op.Name(), in.Index, tag)
				}
			case bytecode.Invokespecial:
				if tag != classfile.TagMethodref && tag != classfile.TagInterfaceMethodref {
					return fail(in.PC, "invokespecial operand %d has tag %s", in.Index, tag)
				}
			case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
				if tag != classfile.TagClass {
					return fail(in.PC, "%s operand %d has tag %s", in.Op.Name(), in.Index, tag)
				}
				if in.Op == bytecode.New {
					cn, _ := pool.ClassName(in.Index)
					if strings.HasPrefix(cn, "[") {
						return fail(in.PC, "new of array class %s", cn)
					}
				}
			}
			// Method name restrictions.
			if in.Op.IsInvoke() {
				census.Phase2++
				ref, err := pool.Ref(in.Index)
				if err != nil {
					return fail(in.PC, "%v", err)
				}
				if ref.Name == "<clinit>" {
					return fail(in.PC, "explicit invocation of <clinit>")
				}
				if ref.Name == "<init>" && in.Op != bytecode.Invokespecial {
					return fail(in.PC, "<init> must be invoked by invokespecial")
				}
			}
		case bytecode.KindIfaceRef:
			census.Phase2++
			if pool.Tag(in.Index) != classfile.TagInterfaceMethodref {
				return fail(in.PC, "invokeinterface operand %d has tag %s", in.Index, pool.Tag(in.Index))
			}
			mt, err := bytecode.RefMethodType(pool, in.Index)
			if err != nil {
				return fail(in.PC, "%v", err)
			}
			if int(in.Count) != mt.ParamSlots()+1 {
				return fail(in.PC, "invokeinterface count %d != %d", in.Count, mt.ParamSlots()+1)
			}
		case bytecode.KindMultiNew:
			census.Phase2++
			if pool.Tag(in.Index) != classfile.TagClass {
				return fail(in.PC, "multianewarray operand %d not a Class", in.Index)
			}
			cn, _ := pool.ClassName(in.Index)
			t, err := bytecode.ParseType(cn)
			if err != nil || t.Kind != bytecode.KArray {
				return fail(in.PC, "multianewarray of non-array class %s", cn)
			}
			depth := 0
			for tt := &t; tt.Kind == bytecode.KArray; tt = tt.Elem {
				depth++
			}
			if int(in.Dims) > depth {
				return fail(in.PC, "multianewarray dims %d exceed array depth %d", in.Dims, depth)
			}
		case bytecode.KindLocal:
			census.Phase2++
			slots := 1
			switch in.Op {
			case bytecode.Lload, bytecode.Dload, bytecode.Lstore, bytecode.Dstore:
				slots = 2
			}
			if int(in.Index)+slots > int(code.MaxLocals) {
				return fail(in.PC, "local %d out of range (max_locals %d)", in.Index, code.MaxLocals)
			}
		case bytecode.KindIinc:
			census.Phase2++
			if int(in.Index) >= int(code.MaxLocals) {
				return fail(in.PC, "iinc local %d out of range", in.Index)
			}
		}
	}

	// Exception table sanity.
	pcIdx := ed.PCIndex()
	for _, h := range code.Handlers {
		census.Phase2++
		if _, ok := pcIdx.At(int(h.StartPC)); !ok {
			return fail(int(h.StartPC), "handler start not on instruction boundary")
		}
		if _, ok := pcIdx.At(int(h.HandlerPC)); !ok {
			return fail(int(h.HandlerPC), "handler entry not on instruction boundary")
		}
		if int(h.EndPC) != len(code.Bytecode) {
			if _, ok := pcIdx.At(int(h.EndPC)); !ok {
				return fail(int(h.EndPC), "handler end not on instruction boundary")
			}
		}
		if h.StartPC >= h.EndPC {
			return fail(int(h.StartPC), "empty handler range [%d, %d)", h.StartPC, h.EndPC)
		}
		if h.CatchType != 0 {
			if _, err := pool.ClassName(h.CatchType); err != nil {
				return fail(int(h.HandlerPC), "bad catch type: %v", err)
			}
		}
	}
	return nil
}
