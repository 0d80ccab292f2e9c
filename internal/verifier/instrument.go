package verifier

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

// AttrVerified is the class attribute the static service attaches to
// mark a class as processed, carrying the check census. Clients (and the
// proxy cache) use it to recognize self-verifying code; it is also the
// "self-describing attribute" mechanism of §4.3.
const AttrVerified = "dvm.Verified"

// guardFieldPrefix names the per-scope "already checked" flags the
// rewriter adds (Figure 3's __mainChecked).
const guardFieldPrefix = "dvm$chk$"

// Instrument rewrites the class into its self-verifying form: for each
// method scope that carries assumptions, a guarded entry snippet performs
// the deferred checks through dvm/RTVerifier on first invocation;
// class-wide assumptions are checked from <clinit>. Returns the number of
// dynamic checks injected and updates res.Census.
func Instrument(cf *classfile.ClassFile, res *Result) error {
	scoped := byScope(res.Assumptions)

	classScope := scoped[""]
	delete(scoped, "")
	if len(classScope) > 0 {
		if err := instrumentClinit(cf, classScope, res); err != nil {
			return err
		}
	}

	guardIdx := 0
	for _, m := range cf.Methods {
		scope := cf.MemberName(m) + " " + cf.MemberDescriptor(m)
		as := scoped[scope]
		if len(as) == 0 {
			continue
		}
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return err
		}
		if ed == nil {
			continue
		}
		guard := fmt.Sprintf("%s%d", guardFieldPrefix, guardIdx)
		guardIdx++
		cf.Fields = append(cf.Fields, &classfile.Member{
			AccessFlags:     classfile.AccPrivate | classfile.AccStatic,
			NameIndex:       cf.Pool.AddUtf8(guard),
			DescriptorIndex: cf.Pool.AddUtf8("Z"),
		})
		sn := rewrite.NewSnippet(cf.Pool)
		sn.GetStatic(cf.Name(), guard, "Z")
		sn.Branch(bytecode.Ifne, rewrite.RelEnd)
		emitChecks(sn, as, res)
		sn.IConst(1)
		sn.PutStatic(cf.Name(), guard, "Z")
		if err := ed.InsertEntry(sn.Insts()); err != nil {
			return err
		}
		if err := ed.Commit(); err != nil {
			return err
		}
	}

	// Attach the census attribute.
	payload := make([]byte, 16)
	binary.BigEndian.PutUint32(payload[0:], uint32(res.Census.Phase1))
	binary.BigEndian.PutUint32(payload[4:], uint32(res.Census.Phase2))
	binary.BigEndian.PutUint32(payload[8:], uint32(res.Census.Phase3))
	binary.BigEndian.PutUint32(payload[12:], uint32(res.Census.DynamicInjected))
	cf.RemoveAttribute(AttrVerified)
	cf.AddAttribute(AttrVerified, payload)
	return nil
}

func emitChecks(sn *rewrite.Snippet, as []Assumption, res *Result) {
	for _, a := range as {
		switch a.Kind {
		case AssumeField:
			sn.LdcString(a.Class).LdcString(a.Name).LdcString(a.Desc)
			sn.InvokeStatic("dvm/RTVerifier", "checkField",
				"(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V")
		case AssumeMethod:
			sn.LdcString(a.Class).LdcString(a.Name).LdcString(a.Desc)
			sn.InvokeStatic("dvm/RTVerifier", "checkMethod",
				"(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V")
		case AssumeAssignable:
			sn.LdcString(a.Class).LdcString(a.Name)
			sn.InvokeStatic("dvm/RTVerifier", "checkClass",
				"(Ljava/lang/String;Ljava/lang/String;)V")
		case AssumeExists:
			sn.LdcString(a.Class).LdcString("")
			sn.InvokeStatic("dvm/RTVerifier", "checkClass",
				"(Ljava/lang/String;Ljava/lang/String;)V")
		}
		res.Census.DynamicInjected++
	}
}

// instrumentClinit injects class-scope checks at the head of <clinit>,
// creating the initializer if the class lacks one. <clinit> runs exactly
// once, so no guard flag is needed.
func instrumentClinit(cf *classfile.ClassFile, as []Assumption, res *Result) error {
	m := cf.FindMethod("<clinit>", "()V")
	if m == nil {
		code := &classfile.Code{MaxStack: 0, MaxLocals: 0, Bytecode: []byte{0xb1}} // return
		m = &classfile.Member{
			AccessFlags:     classfile.AccStatic,
			NameIndex:       cf.Pool.AddUtf8("<clinit>"),
			DescriptorIndex: cf.Pool.AddUtf8("()V"),
		}
		if err := cf.SetCode(m, code); err != nil {
			return err
		}
		cf.Methods = append(cf.Methods, m)
	}
	ed, err := rewrite.EditMethod(cf, m)
	if err != nil {
		return err
	}
	sn := rewrite.NewSnippet(cf.Pool)
	emitChecks(sn, as, res)
	if err := ed.InsertEntry(sn.Insts()); err != nil {
		return err
	}
	return ed.Commit()
}

// InstrumentEager is the ablation variant of Instrument: every
// assumption is rescoped to the whole class and checked from <clinit>,
// abandoning the lazy per-method scheme. Referenced classes are then
// demanded as soon as the class initializes, whether or not the
// dependent methods ever run — the behavior §3.1's lazy design avoids.
func InstrumentEager(cf *classfile.ClassFile, res *Result) error {
	eager := &Result{ClassName: res.ClassName, Census: res.Census}
	set := newAssumptionSet()
	for _, a := range res.Assumptions {
		a.Scope = ""
		set.add(a)
	}
	eager.Assumptions = set.list
	if err := Instrument(cf, eager); err != nil {
		return err
	}
	res.Census = eager.Census
	return nil
}

// DecodeVerifiedAttr extracts the census from a dvm.Verified attribute
// payload.
func DecodeVerifiedAttr(a *classfile.Attribute) (Census, bool) {
	if len(a.Info) != 16 {
		return Census{}, false
	}
	return Census{
		Phase1:          int(binary.BigEndian.Uint32(a.Info[0:])),
		Phase2:          int(binary.BigEndian.Uint32(a.Info[4:])),
		Phase3:          int(binary.BigEndian.Uint32(a.Info[8:])),
		DynamicInjected: int(binary.BigEndian.Uint32(a.Info[12:])),
	}, true
}

// MakeErrorClass builds the replacement class the distributed service
// forwards when verification fails: a class of the same name whose
// initialization raises VerifyError, so "verification errors are
// reflected to clients through the regular Java exception mechanisms."
func MakeErrorClass(name, message string) ([]byte, error) {
	b := classgen.NewClass(name, "java/lang/Object")
	cl := b.Method(classfile.AccStatic, "<clinit>", "()V")
	cl.NewDup("java/lang/VerifyError")
	cl.LdcString(message)
	cl.InvokeSpecial("java/lang/VerifyError", "<init>", "(Ljava/lang/String;)V")
	cl.AThrow()
	// A main stub so clients that launch the class reach <clinit>.
	mn := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	mn.Return()
	return b.BuildBytes()
}

// Filter returns the verification service as a proxy pipeline filter:
// verify statically, then rewrite into self-verifying form. The census is
// accumulated in ctx.Notes[NoteCensus] (*Census) and the per-class result
// stored under NoteResultPrefix+className.
func Filter() rewrite.Filter {
	return rewrite.FilterFunc{FilterName: "verifier", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		res, err := VerifyWith(cf, Options{Trace: ctx.Trace, Node: ctx.Node})
		if err != nil {
			return err
		}
		if err := Instrument(cf, res); err != nil {
			return err
		}
		// Self-describing export table for the dynamic components (§4.3).
		AddReflectAttr(cf)
		if v, ok := ctx.Note(NoteCensus); ok {
			v.(*Census).Add(res.Census)
		} else {
			total := res.Census
			ctx.SetNote(NoteCensus, &total)
		}
		ctx.SetNote(NoteResultPrefix+res.ClassName, res)
		return nil
	}}
}

// Pipeline note keys published by Filter.
const (
	NoteCensus       = "verifier.census"
	NoteResultPrefix = "verifier.result."
)

// LocalHook returns a jvm.LoadHook that performs full (phases 1–3)
// verification on the client at class load time — the monolithic
// baseline configuration of the evaluation. Classes that already carry
// the dvm.Verified attribute are re-verified anyway, matching the paper's
// note that existing monolithic VMs "subject the code to redundant local
// verification."
//
// The census and cumulative wall-clock time are accumulated into the
// provided pointers (either may be nil).
func LocalHook(census *Census, elapsed *time.Duration) jvm.LoadHook {
	return func(vm *jvm.VM, name string, data []byte) error {
		if strings.HasPrefix(name, "java/") || strings.HasPrefix(name, "dvm/") {
			return nil
		}
		start := telemetry.StartTimer()
		cf, err := classfile.Parse(data)
		if err != nil {
			return err
		}
		res, err := Verify(cf)
		if elapsed != nil {
			*elapsed += start.Elapsed()
		}
		if err != nil {
			return err
		}
		if census != nil {
			census.Add(res.Census)
		}
		return nil
	}
}
