package verifier

import (
	"errors"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

// Options carries a verification run's telemetry.
type Options struct {
	// Trace/Node, when set, receive per-phase spans (verify.phase1,
	// verify.phase3) on the request's telemetry trace.
	Trace *telemetry.Trace
	Node  string
}

// Verify runs the three static verification phases over a parsed class
// and collects the phase-4 link assumptions with their scopes. It does
// not modify the class; Instrument (or the Filter) performs the
// rewriting step.
func Verify(cf *classfile.ClassFile) (*Result, error) {
	return VerifyWith(cf, Options{})
}

// VerifyWith is Verify with telemetry options. Methods are verified one
// after another in method-table order on the calling goroutine, so the
// reported error is the one from the lowest-indexed failing method and
// assumptions are collected in instruction order.
func VerifyWith(cf *classfile.ClassFile, opts Options) (*Result, error) {
	res := &Result{ClassName: cf.Name()}
	sp := opts.Trace.StartSpan(opts.Node, "verify.phase1")
	err := phase1(cf, &res.Census)
	sp.End()
	if err != nil {
		return nil, err
	}
	set := newAssumptionSet()
	collectClassAssumptions(cf, set)

	sp = opts.Trace.StartSpan(opts.Node, "verify.phase3")
	for _, m := range cf.Methods {
		if err = verifyMethod(cf, m, &res.Census, set); err != nil {
			break
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Assumptions = set.list
	return res, nil
}

// verifyMethod runs phases 2 and 3 plus assumption collection for a
// single method, adding to census and set.
func verifyMethod(cf *classfile.ClassFile, m *classfile.Member, census *Census, set *assumptionSet) error {
	ed, err := rewrite.DecodeMethod(cf, m)
	if err != nil {
		// A body that does not decode is a phase-2 rejection in the
		// decoder's own words; a Code attribute that does not parse is
		// reported against the bare method name.
		method, msg := cf.MemberName(m), err.Error()
		var de *bytecode.DecodeError
		if errors.As(err, &de) {
			method, msg = method+cf.MemberDescriptor(m), de.Error()
		}
		return &Error{Phase: 2, Class: cf.Name(), Method: method, Msg: msg}
	}
	if ed == nil {
		return nil
	}
	if err := phase2(cf, m, ed, census); err != nil {
		return err
	}
	if err := phase3(cf, m, ed, census); err != nil {
		return err
	}
	collectMethodAssumptions(cf, m, ed.Insts, set)
	return nil
}

// collectClassAssumptions records the class-scoped environmental facts:
// the inheritance relationships. "Fundamental assumptions, such as
// inheritance relationships, affect the validity of the entire class."
func collectClassAssumptions(cf *classfile.ClassFile, set *assumptionSet) {
	name := cf.Name()
	if super := cf.SuperName(); super != "" && !isBootstrapClass(super) {
		set.add(Assumption{Kind: AssumeAssignable, Class: name, Name: super})
	}
	for _, i := range cf.InterfaceNames() {
		if !isBootstrapClass(i) {
			set.add(Assumption{Kind: AssumeAssignable, Class: name, Name: i})
		}
	}
}

// collectMethodAssumptions records, for one method, every fact about
// other classes its instructions rely on: imported field and method
// signatures and referenced classes. The scope is the method, so the
// injected checks run lazily, on the method's first invocation — "the
// classes that make up an application are not fetched from a remote,
// potentially slow, server unless they are required for execution."
func collectMethodAssumptions(cf *classfile.ClassFile, m *classfile.Member, insts []bytecode.Inst, set *assumptionSet) {
	self := cf.Name()
	scope := cf.MemberName(m) + " " + cf.MemberDescriptor(m)
	for _, in := range insts {
		switch {
		case in.Op.IsFieldAccess():
			ref, err := cf.Pool.Ref(in.Index)
			if err != nil || ref.Class == self || isBootstrapClass(ref.Class) {
				continue
			}
			set.add(Assumption{Kind: AssumeField, Class: ref.Class, Name: ref.Name, Desc: ref.Desc, Scope: scope})
		case in.Op.IsInvoke():
			ref, err := cf.Pool.Ref(in.Index)
			if err != nil || ref.Class == self || isBootstrapClass(ref.Class) {
				continue
			}
			set.add(Assumption{Kind: AssumeMethod, Class: ref.Class, Name: ref.Name, Desc: ref.Desc, Scope: scope})
		case in.Op == bytecode.New || in.Op == bytecode.Checkcast ||
			in.Op == bytecode.Instanceof || in.Op == bytecode.Anewarray:
			cn, err := cf.Pool.ClassName(in.Index)
			if err != nil || cn == self || isBootstrapClass(cn) || strings.HasPrefix(cn, "[") {
				continue
			}
			set.add(Assumption{Kind: AssumeExists, Class: cn, Scope: scope})
		}
	}
}

// isBootstrapClass reports whether the class belongs to the trusted
// runtime image, whose exports the verification service knows a priori
// (java/*, dvm/*). Assumptions about those need no runtime check.
func isBootstrapClass(name string) bool {
	return strings.HasPrefix(name, "java/") || strings.HasPrefix(name, "dvm/")
}
