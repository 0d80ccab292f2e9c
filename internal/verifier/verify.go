package verifier

import (
	"errors"
	"runtime"
	"strings"
	"sync"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

// Options configures a verification run.
type Options struct {
	// Workers bounds the goroutines used for the per-method phases
	// (2, 3, and assumption collection). 0 means GOMAXPROCS; 1 runs
	// strictly sequentially. Any value produces identical results: the
	// phases are independent per method, and the merge step folds
	// per-method output back together in method-table order.
	Workers int

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
	return VerifyWith(cf, Options{Workers: 1})
}

// methodResult is the output of verifying one method in isolation.
type methodResult struct {
	census      Census
	assumptions []Assumption
	err         error
}

// VerifyWith is Verify with explicit worker/telemetry options. Per-method
// verification is embarrassingly parallel — phases 2 and 3 read the class
// and write nothing but the method's own decoded-form memo — so the method
// loop fans out over opts.Workers goroutines. The
// result is deterministic regardless of worker count: census counts are
// summed and assumptions deduplicated in method-table order, and the
// reported error is the one from the lowest-indexed failing method.
func VerifyWith(cf *classfile.ClassFile, opts Options) (*Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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
	results := make([]methodResult, len(cf.Methods))
	if workers > len(cf.Methods) {
		workers = len(cf.Methods)
	}
	if workers <= 1 {
		for i, m := range cf.Methods {
			verifyMethod(cf, m, &results[i])
		}
	} else {
		// The lazy codec memoizes Utf8 decoding by writing into the pool;
		// materialize everything before handing it to concurrent readers.
		cf.Pool.Materialize()
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					verifyMethod(cf, cf.Methods[i], &results[i])
				}
			}()
		}
		for i := range cf.Methods {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	sp.End()

	// Deterministic merge in method-table order.
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		res.Census.Add(results[i].census)
		for _, a := range results[i].assumptions {
			set.add(a)
		}
	}
	res.Assumptions = set.list
	return res, nil
}

// verifyMethod runs phases 2 and 3 plus assumption collection for a
// single method, writing into out. Of cf it writes only the method's own
// decoded-form memo, which is what makes concurrent calls over distinct
// methods safe.
func verifyMethod(cf *classfile.ClassFile, m *classfile.Member, out *methodResult) {
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
		out.err = &Error{Phase: 2, Class: cf.Name(), Method: method, Msg: msg}
		return
	}
	if ed == nil {
		return
	}
	if err := phase2(cf, m, ed, &out.census); err != nil {
		out.err = err
		return
	}
	if err := phase3(cf, m, ed, &out.census); err != nil {
		out.err = err
		return
	}
	local := newAssumptionSet()
	collectMethodAssumptions(cf, m, ed.Insts, local)
	out.assumptions = local.list
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
