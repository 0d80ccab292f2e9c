package verifier

import (
	"encoding/binary"
	"slices"
	"strconv"
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
	f := getFindings()
	defer f.release()
	f.scope(cf, res.Assumptions)
	return instrument(cf, f.list, &res.Census)
}

// instrument is Instrument over findings, which it sorts by scope and
// then deterministically within one; the Filter calls it directly.
func instrument(cf *classfile.ClassFile, list []finding, census *Census) error {
	slices.SortFunc(list, compareFindings)
	n := 0
	for n < len(list) && list[n].method == 0 {
		n++
	}
	if n > 0 {
		if err := instrumentClinit(cf, list[:n], census); err != nil {
			return err
		}
	}

	guardIdx := 0
	for list = list[n:]; len(list) > 0; list = list[n:] {
		method := list[0].method
		for n = 1; n < len(list) && list[n].method == method; n++ {
		}
		ed, err := rewrite.EditMethod(cf, cf.Methods[method-1])
		if err != nil {
			return err
		}
		if ed == nil {
			continue
		}
		guard := guardFieldPrefix + strconv.Itoa(guardIdx)
		guardIdx++
		cf.AddField(classfile.AccPrivate|classfile.AccStatic, guard, "Z")
		sn := rewrite.NewSnippet(cf.Pool)
		sn.GetStatic(cf.Name(), guard, "Z")
		sn.Branch(bytecode.Ifne, rewrite.RelEnd)
		emitChecks(sn, list[:n], census)
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
	payload := rewrite.ArenaOf(cf).Bytes(16)[:16]
	binary.BigEndian.PutUint32(payload[0:], uint32(census.Phase1))
	binary.BigEndian.PutUint32(payload[4:], uint32(census.Phase2))
	binary.BigEndian.PutUint32(payload[8:], uint32(census.Phase3))
	binary.BigEndian.PutUint32(payload[12:], uint32(census.DynamicInjected))
	cf.RemoveAttribute(AttrVerified)
	cf.AddAttribute(AttrVerified, payload)
	return nil
}

func emitChecks(sn *rewrite.Snippet, as []finding, census *Census) {
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
		census.DynamicInjected++
	}
}

// instrumentClinit injects class-scope checks at the head of <clinit>,
// creating the initializer if the class lacks one. <clinit> runs exactly
// once, so no guard flag is needed.
func instrumentClinit(cf *classfile.ClassFile, as []finding, census *Census) error {
	m := cf.FindMethod("<clinit>", "()V")
	if m == nil {
		m = cf.AddMethod(classfile.AccStatic, "<clinit>", "()V")
		code := &classfile.Code{MaxStack: 0, MaxLocals: 0, Bytecode: []byte{0xb1}} // return
		if err := cf.SetCode(m, code); err != nil {
			return err
		}
	}
	ed, err := rewrite.EditMethod(cf, m)
	if err != nil {
		return err
	}
	sn := rewrite.NewSnippet(cf.Pool)
	emitChecks(sn, as, census)
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
	f := getFindings()
	defer f.release()
	for _, a := range res.Assumptions {
		a.Scope = ""
		f.add(finding{Assumption: a})
	}
	census := res.Census
	if err := instrument(cf, f.list, &census); err != nil {
		return err
	}
	res.Census = census
	return nil
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
// accumulated in ctx.Notes[NoteCensus] (*Census). The findings never leave
// the filter: they are scratch, recycled when it returns.
func Filter() rewrite.Filter {
	return rewrite.FilterFunc{FilterName: "verifier", Fn: func(cf *classfile.ClassFile, ctx *rewrite.Context) error {
		f := getFindings()
		defer f.release()
		if err := verify(cf, Options{Trace: ctx.Trace, Node: ctx.Node}, f); err != nil {
			return err
		}
		if err := instrument(cf, f.list, &f.census); err != nil {
			return err
		}
		// Self-describing export table for the dynamic components (§4.3).
		AddReflectAttr(cf)
		if v, ok := ctx.Note(NoteCensus); ok {
			v.(*Census).Add(f.census)
		} else {
			total := f.census
			ctx.SetNote(NoteCensus, &total)
		}
		return nil
	}}
}

// NoteCensus is the pipeline note key Filter publishes.
const NoteCensus = "verifier.census"

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
