package verifier

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// TestOpcodeVerdictGolden pins phase 3's typing rule for every opcode it
// handles, one synthesized method at a time, so that a rework of the
// rules can show it changed no verdict, no rejection text and no census
// count. Each method is static with descriptor probeDesc: a prelude of
// up to three values (see probePreludes; the short ones underflow), the
// opcode with one of its operand variants, ifeq, then return. The ifeq
// shows what the opcode left on top of the stack: an int passes, and
// anything else, or nothing, is a rejection whose text names it.
// Indexed loads, stores, iinc and ret are tried at every parameter slot.
// max_stack is the prelude's height plus 2, and for an opcode that pops
// nothing also 1, so that a push can overflow. The Code attribute is
// built here, not by classgen, whose max_stack computation refuses a
// body that underflows. The golden file holds one line per method: the
// opcode and variant, the prelude, max_stack, the verdict, the first 4
// bytes of SHA-256 of the error text and the phase 1–3 census, which is
// counted for a rejected method too.
func TestOpcodeVerdictGolden(t *testing.T) {
	const path = "testdata/opcode_golden.txt"
	var got bytes.Buffer
	for op := 0; op < 256; op++ {
		op := bytecode.Opcode(op)
		if !op.Valid() || op == bytecode.Wide || op.IsExtension() {
			continue
		}
		for _, c := range probeCases(op) {
			cf, in, _ := probeClass(c)
			pop, _, err := bytecode.StackEffect(in, cf.Pool)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			for _, pre := range probePreludes(pop) {
				fmt.Fprintf(&got, "%s %s ms%d %s\n", c.label, preludeName(pre), preludeSlots(pre)+2, probeVerdict(t, c, pre, preludeSlots(pre)+2))
			}
			if pop == 0 {
				fmt.Fprintf(&got, "%s - ms1 %s\n", c.label, probeVerdict(t, c, nil, 1))
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d lines, this tree produces %d", path, len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs (later lines may too):\n  got  %s\n  want %s", path, i+1, gl[i], wl[i])
		}
	}
}

// The synthesized methods' descriptor: local 0 holds an int, 1-2 a
// long, 3 a float, 4-5 a double and 6 a reference.
const (
	probeDesc   = "(IJFDLjava/lang/Object;)V"
	probeLocals = 7
)

// probeValue is one value a prelude pushes, named in the golden file by
// its descriptor letter (N for null, S for a String constant).
type probeValue struct {
	name  byte
	slots int
	op    bytecode.Opcode
}

var probeValues = []probeValue{
	{'I', 1, bytecode.Iconst0}, {'J', 2, bytecode.Lconst0}, {'F', 1, bytecode.Fconst0},
	{'D', 2, bytecode.Dconst0}, {'N', 1, bytecode.AconstNull}, {'S', 1, bytecode.LdcW},
}

// probePreludes returns the preludes of an opcode that pops pop slots:
// every sequence of at most three probeValues, bottom of the stack
// first, shortest first, whose bottom value lies at least partly within
// the top pop slots. A deeper value is never read, so the prelude
// without it has the same verdict.
func probePreludes(pop int) [][]probeValue {
	out := [][]probeValue{nil}
	for prev := out; len(prev) > 0 && len(prev[0]) < 3; {
		var next [][]probeValue
		for _, p := range prev {
			if preludeSlots(p) >= pop {
				continue
			}
			for _, v := range probeValues {
				next = append(next, append([]probeValue{v}, p...))
			}
		}
		out, prev = append(out, next...), next
	}
	return out
}

func preludeName(pre []probeValue) string {
	if len(pre) == 0 {
		return "-"
	}
	b := make([]byte, len(pre))
	for i, v := range pre {
		b[i] = v.name
	}
	return string(b)
}

func preludeSlots(pre []probeValue) int {
	n := 0
	for _, v := range pre {
		n += v.slots
	}
	return n
}

// probeCase is an opcode with one operand variant: build adds what the
// operand indexes to a class's constant pool and returns the instruction.
type probeCase struct {
	label string // the opcode's name, then ":" and the variant, if any
	build func(pool *classfile.ConstPool) bytecode.Inst
}

// probeClass returns a fresh class holding c's constants, c's
// instruction in it, and the index of the String a prelude's S loads.
func probeClass(c probeCase) (*classfile.ClassFile, bytecode.Inst, uint16) {
	cf := classgen.NewClass("app/T", "java/lang/Object").MustBuild()
	str := cf.Pool.AddString("s")
	return cf, c.build(cf.Pool), str
}

// probeCases lists op's operand variants. Branch and switch targets are
// filled in by probeVerdict.
func probeCases(op bytecode.Opcode) []probeCase {
	var out []probeCase
	add := func(variant string, build func(pool *classfile.ConstPool) bytecode.Inst) {
		label := op.Name()
		if variant != "" {
			label += ":" + variant
		}
		out = append(out, probeCase{label, func(pool *classfile.ConstPool) bytecode.Inst {
			in := build(pool)
			in.Op = op
			return in
		}})
	}
	plain := func(in bytecode.Inst) func(*classfile.ConstPool) bytecode.Inst {
		return func(*classfile.ConstPool) bytecode.Inst { return in }
	}
	method := func(name, desc string) func(*classfile.ConstPool) bytecode.Inst {
		return func(pool *classfile.ConstPool) bytecode.Inst {
			if op == bytecode.Invokeinterface {
				mt, _ := bytecode.ParseMethodType(desc)
				return bytecode.Inst{Index: pool.AddInterfaceMethodref("app/I", name, desc), Count: uint8(mt.ParamSlots() + 1)}
			}
			return bytecode.Inst{Index: pool.AddMethodref("app/T", name, desc)}
		}
	}
	switch {
	case op.OperandKind() == bytecode.KindLocal || op.OperandKind() == bytecode.KindIinc:
		for i := 0; i < probeLocals; i++ {
			add(fmt.Sprint(i), plain(bytecode.Inst{Index: uint16(i), Const: 1}))
		}
	case op == bytecode.Bipush || op == bytecode.Sipush:
		add("", plain(bytecode.Inst{Const: 5}))
	case op == bytecode.Ldc || op == bytecode.LdcW:
		add("int", func(pool *classfile.ConstPool) bytecode.Inst { return bytecode.Inst{Index: pool.AddInteger(7)} })
		add("float", func(pool *classfile.ConstPool) bytecode.Inst { return bytecode.Inst{Index: pool.AddFloat(1.5)} })
		add("String", func(pool *classfile.ConstPool) bytecode.Inst { return bytecode.Inst{Index: pool.AddString("t")} })
	case op == bytecode.Ldc2W:
		add("long", func(pool *classfile.ConstPool) bytecode.Inst { return bytecode.Inst{Index: pool.AddLong(7)} })
		add("double", func(pool *classfile.ConstPool) bytecode.Inst { return bytecode.Inst{Index: pool.AddDouble(1.5)} })
	case op.IsFieldAccess():
		for _, desc := range []string{"I", "J", "Ljava/lang/String;"} {
			add(desc, func(pool *classfile.ConstPool) bytecode.Inst {
				return bytecode.Inst{Index: pool.AddFieldref("app/T", "f", desc)}
			})
		}
	case op.IsInvoke():
		add("s(I)V", method("s", "(I)V"))
		add("v(J)Ljava/lang/String;", method("v", "(J)Ljava/lang/String;"))
		add("<init>()V", method("<init>", "()V"))
	case op == bytecode.New || op == bytecode.Anewarray || op == bytecode.Checkcast || op == bytecode.Instanceof:
		for _, cn := range []string{"app/T", "[I"} {
			add(cn, func(pool *classfile.ConstPool) bytecode.Inst { return bytecode.Inst{Index: pool.AddClass(cn)} })
		}
	case op == bytecode.Multianewarray:
		for dims := uint8(1); dims <= 2; dims++ {
			add(fmt.Sprint(dims), func(pool *classfile.ConstPool) bytecode.Inst {
				return bytecode.Inst{Index: pool.AddClass("[[I"), Dims: dims}
			})
		}
	case op == bytecode.Newarray:
		for at := uint8(bytecode.TBoolean); at <= bytecode.TLong; at++ {
			add(fmt.Sprint(at), plain(bytecode.Inst{ArrayType: at}))
		}
	case op == bytecode.Tableswitch:
		add("", plain(bytecode.Inst{Switch: &bytecode.Switch{Targets: []int{0}}}))
	case op == bytecode.Lookupswitch:
		add("", plain(bytecode.Inst{Switch: &bytecode.Switch{Keys: []int32{1}, Targets: []int{0}}}))
	default:
		add("", plain(bytecode.Inst{}))
	}
	return out
}

// probeVerdict verifies the method pre; c; ifeq; return with the given
// max_stack, alone in a fresh class, and renders the outcome. Branches
// and switches, the ifeq's too, go to the trailing return.
func probeVerdict(t *testing.T, c probeCase, pre []probeValue, maxStack int) string {
	t.Helper()
	cf, in, str := probeClass(c)
	insts := make([]bytecode.Inst, 0, len(pre)+3)
	for _, v := range pre {
		insts = append(insts, bytecode.Inst{Op: v.op, Index: str})
	}
	ret := len(pre) + 2
	if in.Op.IsBranch() {
		in.Target = ret
	}
	if in.Switch != nil {
		sw := *in.Switch
		sw.Default, sw.Targets = ret, []int{ret}
		in.Switch = &sw
	}
	insts = append(insts, in, bytecode.Inst{Op: bytecode.Ifeq, Target: ret}, bytecode.Inst{Op: bytecode.Return})
	code, _, err := bytecode.Encode(insts)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	m := &classfile.Member{
		AccessFlags:     classfile.AccPublic | classfile.AccStatic,
		NameIndex:       cf.Pool.AddUtf8("m"),
		DescriptorIndex: cf.Pool.AddUtf8(probeDesc),
	}
	if err := cf.SetCode(m, &classfile.Code{MaxStack: uint16(maxStack), MaxLocals: probeLocals, Bytecode: code}); err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	cf.Methods = []*classfile.Member{m}
	f := getFindings()
	defer f.release()
	verdict := "accepted"
	if err := verify(cf, Options{}, f); err != nil {
		h := sha256.Sum256([]byte(err.Error()))
		verdict = fmt.Sprintf("rejected %x", h[:4])
	}
	return fmt.Sprintf("%s %d %d %d", verdict, f.census.Phase1, f.census.Phase2, f.census.Phase3)
}
