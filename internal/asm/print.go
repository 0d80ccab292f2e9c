package asm

import (
	"fmt"
	"strconv"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
)

// Print renders a classfile as assembly text that Assemble accepts,
// giving the DVM a round-trippable, human-readable interchange format.
// Classes containing DVM native-format extension opcodes cannot be
// printed (they have no strict-JVM text form) and return an error.
func Print(cf *classfile.ClassFile) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, ".class%s %s\n", flagText(cf.AccessFlags&^classfile.AccSuper, false), cf.Name())
	if s := cf.SuperName(); s != "" {
		fmt.Fprintf(&b, ".super %s\n", s)
	}
	for _, ifc := range cf.InterfaceNames() {
		fmt.Fprintf(&b, ".implements %s\n", ifc)
	}
	b.WriteByte('\n')
	for _, f := range cf.Fields {
		// Service-injected guard flags (dvm$...) print like any field and
		// reassemble unchanged.
		fmt.Fprintf(&b, ".field%s %s %s\n", flagText(f.AccessFlags, true), cf.MemberName(f), cf.MemberDescriptor(f))
	}
	if len(cf.Fields) > 0 {
		b.WriteByte('\n')
	}
	for _, m := range cf.Methods {
		if err := printMethod(&b, cf, m); err != nil {
			return "", err
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// flagText renders access flags in the order the parser accepts.
func flagText(flags uint16, member bool) string {
	var out []string
	add := func(mask uint16, name string) {
		if flags&mask != 0 {
			out = append(out, name)
		}
	}
	add(classfile.AccPublic, "public")
	add(classfile.AccPrivate, "private")
	add(classfile.AccProtected, "protected")
	add(classfile.AccStatic, "static")
	add(classfile.AccFinal, "final")
	if member {
		add(classfile.AccSynchronized, "synchronized")
		add(classfile.AccVolatile, "volatile")
		add(classfile.AccTransient, "transient")
		add(classfile.AccNative, "native")
	}
	add(classfile.AccInterface, "interface")
	add(classfile.AccAbstract, "abstract")
	if len(out) == 0 {
		return ""
	}
	return " " + strings.Join(out, " ")
}

func printMethod(b *strings.Builder, cf *classfile.ClassFile, m *classfile.Member) error {
	fmt.Fprintf(b, ".method%s %s %s\n", flagText(m.AccessFlags, true), cf.MemberName(m), cf.MemberDescriptor(m))
	code, err := cf.CodeOf(m)
	if err != nil {
		return err
	}
	if code == nil {
		fmt.Fprintf(b, ".end method\n")
		return nil
	}
	insts, pcIdx, err := bytecode.DecodeWithIndex(nil, code.Bytecode, false)
	if err != nil {
		return fmt.Errorf("asm: %s.%s: %w", cf.Name(), cf.MemberName(m), err)
	}

	// Collect label positions: branch/switch targets and handler bounds.
	labelAt := map[int]string{} // instruction index (or len(insts)) -> label
	need := func(idx int) string {
		if name, ok := labelAt[idx]; ok {
			return name
		}
		var name string
		if idx == len(insts) {
			name = "Lend"
		} else {
			name = "L" + strconv.Itoa(insts[idx].PC)
		}
		labelAt[idx] = name
		return name
	}
	for _, in := range insts {
		if in.Op.IsBranch() {
			need(in.Target)
		}
		if in.Op.IsSwitch() {
			need(in.Switch.Default)
			for _, t := range in.Switch.Targets {
				need(t)
			}
		}
	}
	type hnd struct {
		s, e, h string
		catch   string
	}
	var handlers []hnd
	for _, h := range code.Handlers {
		si, ok1 := pcIdx.At(int(h.StartPC))
		hi, ok3 := pcIdx.At(int(h.HandlerPC))
		ei := len(insts)
		ok2 := int(h.EndPC) == len(code.Bytecode)
		if !ok2 {
			ei, ok2 = pcIdx.At(int(h.EndPC))
		}
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("asm: %s.%s: exception table off instruction boundaries", cf.Name(), cf.MemberName(m))
		}
		catch := "all"
		if h.CatchType != 0 {
			catch, err = cf.Pool.ClassName(h.CatchType)
			if err != nil {
				return err
			}
		}
		handlers = append(handlers, hnd{need(si), need(ei), need(hi), catch})
	}
	for _, h := range handlers {
		fmt.Fprintf(b, "    .catch %s from %s to %s using %s\n", h.catch, h.s, h.e, h.h)
	}

	for i, in := range insts {
		if name, ok := labelAt[i]; ok {
			fmt.Fprintf(b, "%s:\n", name)
		}
		line, err := printInst(cf, insts, in, labelAt)
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "    %s\n", line)
		_ = i
	}
	if name, ok := labelAt[len(insts)]; ok {
		// End-of-code label (handler range end): bind it, then .end.
		fmt.Fprintf(b, "%s:\n", name)
	}
	fmt.Fprintf(b, ".end method\n")
	return nil
}

func printInst(cf *classfile.ClassFile, insts []bytecode.Inst, in bytecode.Inst, labelAt map[int]string) (string, error) {
	pool := cf.Pool
	name := in.Op.Name()
	switch {
	case in.Op == bytecode.Tableswitch:
		var b strings.Builder
		fmt.Fprintf(&b, "tableswitch %d", in.Switch.Low)
		for _, t := range in.Switch.Targets {
			fmt.Fprintf(&b, "\n        %s", labelAt[t])
		}
		fmt.Fprintf(&b, "\n        default : %s", labelAt[in.Switch.Default])
		return b.String(), nil
	case in.Op == bytecode.Lookupswitch:
		var b strings.Builder
		b.WriteString("lookupswitch")
		for k, t := range in.Switch.Targets {
			fmt.Fprintf(&b, "\n        %d : %s", in.Switch.Keys[k], labelAt[t])
		}
		fmt.Fprintf(&b, "\n        default : %s", labelAt[in.Switch.Default])
		return b.String(), nil
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s", name, labelAt[in.Target]), nil
	}

	switch in.Op.OperandKind() {
	case bytecode.KindNone:
		return name, nil
	case bytecode.KindS1, bytecode.KindS2:
		return fmt.Sprintf("%s %d", name, in.Const), nil
	case bytecode.KindLocal:
		return fmt.Sprintf("%s %d", name, in.Index), nil
	case bytecode.KindIinc:
		return fmt.Sprintf("iinc %d %d", in.Index, in.Const), nil
	case bytecode.KindAType:
		for n, t := range atypes {
			if t == in.ArrayType {
				return fmt.Sprintf("newarray %s", n), nil
			}
		}
		return "", fmt.Errorf("asm: unknown array type %d", in.ArrayType)
	case bytecode.KindMultiNew:
		cn, err := pool.ClassName(in.Index)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("multianewarray %s %d", cn, in.Dims), nil
	case bytecode.KindIfaceRef:
		ref, err := pool.Ref(in.Index)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("invokeinterface %s %s %s", ref.Class, ref.Name, ref.Desc), nil
	case bytecode.KindCPU1, bytecode.KindCPU2:
		switch in.Op {
		case bytecode.Ldc, bytecode.LdcW:
			e, err := pool.Entry(in.Index)
			if err != nil {
				return "", err
			}
			switch e.Tag {
			case classfile.TagString:
				s, _ := pool.StringValue(in.Index)
				return "ldc " + quote(s), nil
			case classfile.TagInteger:
				return fmt.Sprintf("ldc %d", e.Int), nil
			case classfile.TagFloat:
				return "ldc " + floatText(float64(e.Float)), nil
			}
			return "", fmt.Errorf("asm: ldc of %s", e.Tag)
		case bytecode.Ldc2W:
			e, err := pool.Entry(in.Index)
			if err != nil {
				return "", err
			}
			if e.Tag == classfile.TagLong {
				return fmt.Sprintf("ldc2_w %d", e.Long), nil
			}
			return "ldc2_w " + floatText(e.Double), nil
		case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield,
			bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic:
			ref, err := pool.Ref(in.Index)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %s %s %s", name, ref.Class, ref.Name, ref.Desc), nil
		case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
			cn, err := pool.ClassName(in.Index)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %s", name, cn), nil
		}
	}
	return "", fmt.Errorf("asm: cannot print %s", name)
}

// quote renders a string literal in the assembler's syntax.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('"')
	return b.String()
}

// floatText renders a float so the parser reads it back as a float.
func floatText(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
