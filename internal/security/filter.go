package security

import (
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/rewrite"
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

// checkSite is one planned insertion: the snippet goes before the
// instruction at pos (pos == -1 means method entry).
type checkSite struct {
	pos   int
	insts []bytecode.Inst
}

func (f *enforceFilter) Name() string { return "security" }

// Transform implements rewrite.Filter. Call-site checks are inserted with
// captured branches so no control path can reach the operation unchecked.
func (f *enforceFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	if f.policy == nil {
		return nil // no policy: nothing to enforce
	}
	plans, err := f.plan(cf)
	if err != nil {
		return err
	}
	ctx.AddIntNote(NoteChecksInserted, 0)
	for i, m := range cf.Methods {
		plan := plans[i]
		if len(plan) == 0 {
			continue
		}
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return err
		}
		for _, cs := range plan {
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
		ctx.AddIntNote(NoteChecksInserted, len(plan))
	}
	return nil
}

// plan returns the insertions for each method of cf, by method index.
// Constants are interned only for sites that actually match, so a class
// with nothing to enforce round-trips byte-identically.
func (f *enforceFilter) plan(cf *classfile.ClassFile) ([][]checkSite, error) {
	policy := f.policy
	plans := make([][]checkSite, len(cf.Methods))
	for mi, m := range cf.Methods {
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return nil, err
		}
		if ed == nil {
			continue
		}

		// Call-site instrumentation: find invocations matching an operation.
		type site struct {
			pos int
			op  Operation
		}
		var sites []site
		for i, in := range ed.Insts {
			if !in.Op.IsInvoke() {
				continue
			}
			ref, err := cf.Pool.Ref(in.Index)
			if err != nil {
				continue
			}
			for _, op := range policy.Operations {
				if !matchPattern(op.Class, ref.Class) || op.Method != ref.Name {
					continue
				}
				if op.Desc != "" && op.Desc != ref.Desc {
					continue
				}
				sites = append(sites, site{pos: i, op: op})
				break
			}
		}
		var plan []checkSite
		// Snippets are planned back-to-front so that replaying them in
		// order keeps earlier instruction positions valid.
		for n := len(sites) - 1; n >= 0; n-- {
			st := sites[n]
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
			plan = append(plan, checkSite{pos: st.pos, insts: sn.Insts()}) // classfile:allow-alias — spliced in and dropped within Transform
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
			plan = append(plan, checkSite{pos: -1, insts: sn.Insts()}) // classfile:allow-alias — as above
			break
		}

		plans[mi] = plan
	}
	return plans, nil
}
