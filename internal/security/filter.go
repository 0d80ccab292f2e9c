package security

import (
	"sync"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
	"dvm/internal/slab"
)

// Pipeline note keys published by Filter.
const (
	// NoteChecksInserted accumulates (int) the number of access checks the
	// static service injected across classes.
	NoteChecksInserted = "security.checksInserted"
)

// Filter returns the static half of the security service as a proxy
// pipeline filter. Per the policy's operation mappings it rewrites
// incoming applications so that every matching call site (and every
// declared method boundary named in the policy) is preceded by a call to
// the client enforcement manager, dvm/Enforce.check(permission, target).
//
// Where the operation's target is its final String argument, the snippet
// duplicates it off the operand stack so the check sees the actual
// dynamic target — the capability the Sun JDK's anticipated-hook design
// lacks (Figure 9's "Read File" row).
func Filter(policy *Policy) rewrite.Filter {
	return &enforceFilter{policy: policy}
}

// enforceFilter works in two passes over the method table: plan scans
// every method for matching call sites and builds the check snippets
// (all constant-pool interning, in method-table order), then Transform
// splices them in. Planning everything first is what fixes the order of
// the constants the filter adds and puts any decode error ahead of any
// splice error — both are part of the artifact the fleet attests.
type enforceFilter struct{ policy *Policy }

// checkSite is one planned insertion into the method at index method:
// the snippet goes before the instruction at pos (pos == -1 means method
// entry).
type checkSite struct {
	method int
	pos    int
	insts  []bytecode.Inst
}

// callSite is a call that matched an operation of the policy.
type callSite struct {
	pos int
	op  *Operation
}

// enforcePlan is the filter's scratch for one class, taken from planPool
// by Transform and given back once the snippets are spliced in: the
// insertions of every method, method by method in table order, and the
// call sites matched in the method being planned.
type enforcePlan struct {
	checks []checkSite
	calls  []callSite
}

var planPool = sync.Pool{New: func() any { return new(enforcePlan) }}

// keepChecks bounds, in elements, what a pooled enforcePlan retains.
const keepChecks = 1 << 10

// poisonCheck is what release writes over the insertions it recycles with
// slab.PoisonOnReset on: a snippet no filter plans, in no method.
var poisonCheck = checkSite{method: -1, pos: -2, insts: []bytecode.Inst{{Op: bytecode.PoisonOp, Target: bytecode.PoisonTarget}}}

func (p *enforcePlan) release() {
	if slab.Poisoning() {
		slab.Fill(p.checks, poisonCheck)
	} else {
		clear(p.checks)
	}
	clear(p.calls)
	p.checks, p.calls = p.checks[:0], p.calls[:0]
	if cap(p.checks) > keepChecks || cap(p.calls) > keepChecks {
		p.checks, p.calls = nil, nil
	}
	planPool.Put(p)
}

func (f *enforceFilter) Name() string { return "security" }

// Transform implements rewrite.Filter. Call-site checks are inserted with
// captured branches so no control path can reach the operation unchecked.
func (f *enforceFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	if f.policy == nil {
		return nil // no policy: nothing to enforce
	}
	plan := planPool.Get().(*enforcePlan)
	defer plan.release()
	if err := f.plan(cf, plan); err != nil {
		return err
	}
	ctx.AddIntNote(NoteChecksInserted, 0)
	for checks, n := plan.checks, 0; len(checks) > 0; checks = checks[n:] {
		method := checks[0].method
		for n = 1; n < len(checks) && checks[n].method == method; n++ {
		}
		ed, err := rewrite.EditMethod(cf, cf.Methods[method])
		if err != nil {
			return err
		}
		for _, cs := range checks[:n] {
			if cs.pos < 0 {
				if err := ed.InsertEntry(cs.insts); err != nil {
					return err
				}
			} else if err := ed.InsertAt(cs.pos, cs.insts, true); err != nil {
				return err
			}
		}
		if err := ed.Commit(); err != nil {
			return err
		}
		ctx.AddIntNote(NoteChecksInserted, n)
	}
	return nil
}

// plan appends the insertions for each method of cf to p.checks, in
// method order. Constants are interned only for sites that actually match,
// so a class with nothing to enforce round-trips byte-identically.
func (f *enforceFilter) plan(cf *classfile.ClassFile, p *enforcePlan) error {
	policy := f.policy
	for mi, m := range cf.Methods {
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return err
		}
		if ed == nil {
			continue
		}

		// Call-site instrumentation: find invocations matching an operation.
		p.calls = p.calls[:0]
		for i, in := range ed.Insts {
			if !in.Op.IsInvoke() {
				continue
			}
			ref, err := cf.Pool.Ref(in.Index)
			if err != nil {
				continue
			}
			for k := range policy.Operations {
				op := &policy.Operations[k]
				if !matchPattern(op.Class, ref.Class) || op.Method != ref.Name {
					continue
				}
				if op.Desc != "" && op.Desc != ref.Desc {
					continue
				}
				p.calls = append(p.calls, callSite{pos: i, op: op})
				break
			}
		}
		// Snippets are planned back-to-front so that replaying them in
		// order keeps earlier instruction positions valid.
		for n := len(p.calls) - 1; n >= 0; n-- {
			st := p.calls[n]
			sn := rewrite.NewSnippet(cf.Pool)
			if st.op.TargetArg == "arg" {
				// Stack: [..., target]; keep it and pass a copy to the check.
				sn.Dup()
				sn.LdcString(st.op.Permission)
				sn.Swap()
				sn.InvokeStatic("dvm/Enforce", "check", "(Ljava/lang/String;Ljava/lang/String;)V")
			} else {
				sn.LdcString(st.op.Permission)
				sn.LdcString("")
				sn.InvokeStatic("dvm/Enforce", "check", "(Ljava/lang/String;Ljava/lang/String;)V")
			}
			p.checks = append(p.checks, checkSite{method: mi, pos: st.pos, insts: sn.Insts()}) // classfile:allow-alias — spliced in and dropped within Transform
		}

		// Method-boundary instrumentation: the class itself declares an
		// operation-mapped method.
		mname := cf.MemberName(m)
		for _, op := range policy.Operations {
			if !matchPattern(op.Class, cf.Name()) || op.Method != mname {
				continue
			}
			if op.Desc != "" && op.Desc != cf.MemberDescriptor(m) {
				continue
			}
			sn := rewrite.NewSnippet(cf.Pool)
			sn.LdcString(op.Permission)
			sn.LdcString("")
			sn.InvokeStatic("dvm/Enforce", "check", "(Ljava/lang/String;Ljava/lang/String;)V")
			p.checks = append(p.checks, checkSite{method: mi, pos: -1, insts: sn.Insts()}) // classfile:allow-alias — as above
			break
		}
	}
	return nil
}
