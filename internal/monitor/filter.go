package monitor

import (
	"strconv"
	"strings"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/jvm"
	"dvm/internal/rewrite"
)

// Config selects what the audit filter instruments.
type Config struct {
	// Methods instruments method/constructor entry and exit with
	// dvm/Audit events.
	Methods bool
	// FirstUse instruments each method with a guarded dvm/Profile
	// first-use probe (feeds the §5 repartitioning optimizer).
	FirstUse bool
	// Skip filters out methods by name (e.g. "<clinit>" to avoid auditing
	// initializers); nil audits everything.
	Skip func(class, method string) bool
}

// Pipeline note keys published by the filters.
const (
	// NoteAuditSites accumulates (int) the number of audit probes added.
	NoteAuditSites = "monitor.auditSites"
)

// Filter returns the static half of the remote monitoring service:
// a pipeline filter that rewrites applications to invoke the auditing
// (and optionally profiling) dynamic components at method and
// constructor boundaries.
func Filter(cfg Config) rewrite.Filter {
	return &auditFilter{cfg: cfg}
}

// auditFilter works in two passes over the method table: plan interns
// every constant and appends the first-use guard fields in method-table
// order, then Transform splices the snippets in. Planning everything
// first is what fixes the order of the constants the filter adds, which
// is part of the artifact the fleet attests.
type auditFilter struct{ cfg Config }

// auditPlan holds the pre-built snippets for one method. They are the
// class's arena storage; a plan lives from plan to the end of Transform.
type auditPlan struct {
	fu    []bytecode.Inst
	enter []bytecode.Inst
	exit  []bytecode.Inst
	sites int
}

func (f *auditFilter) Name() string { return "monitor" }

// Transform implements rewrite.Filter.
func (f *auditFilter) Transform(cf *classfile.ClassFile, ctx *rewrite.Context) error {
	plans, err := f.plan(cf)
	if err != nil {
		return err
	}
	ctx.AddIntNote(NoteAuditSites, 0)
	for i, m := range cf.Methods {
		plan := plans[i]
		if plan.sites == 0 {
			continue
		}
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return err
		}
		if plan.fu != nil {
			if err := ed.InsertEntry(plan.fu); err != nil {
				return err
			}
		}
		if plan.enter != nil {
			if err := ed.InsertBeforeReturns(plan.exit); err != nil {
				return err
			}
			if err := ed.InsertEntry(plan.enter); err != nil {
				return err
			}
		}
		if err := ed.Commit(); err != nil {
			return err
		}
		ctx.AddIntNote(NoteAuditSites, plan.sites)
	}
	return nil
}

// plan returns the snippets for each method of cf, by method index.
func (f *auditFilter) plan(cf *classfile.ClassFile) ([]auditPlan, error) {
	cfg := f.cfg
	plans := make([]auditPlan, len(cf.Methods))
	profIdx := 0
	for mi, m := range cf.Methods {
		name := cf.MemberName(m)
		if cfg.Skip != nil && cfg.Skip(cf.Name(), name) {
			continue
		}
		ed, err := rewrite.EditMethod(cf, m)
		if err != nil {
			return nil, err
		}
		if ed == nil {
			continue
		}
		plan := &plans[mi]
		if cfg.FirstUse {
			guard := "dvm$fu$" + strconv.Itoa(profIdx)
			profIdx++
			cf.Fields = append(cf.Fields, &classfile.Member{
				AccessFlags:     classfile.AccPrivate | classfile.AccStatic,
				NameIndex:       cf.Pool.AddUtf8(guard),
				DescriptorIndex: cf.Pool.AddUtf8("Z"),
			})
			sn := rewrite.NewSnippet(cf.Pool)
			sn.GetStatic(cf.Name(), guard, "Z")
			sn.Branch(bytecode.Ifne, rewrite.RelEnd)
			sn.IConst(1)
			sn.PutStatic(cf.Name(), guard, "Z")
			sn.LdcString(cf.Name()).LdcString(name).LdcString(cf.MemberDescriptor(m))
			sn.InvokeStatic("dvm/Profile", "firstUse",
				"(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V")
			plan.fu = sn.Insts() // classfile:allow-alias — spliced in and dropped within Transform
			plan.sites++
		}
		if cfg.Methods {
			enter := rewrite.NewSnippet(cf.Pool)
			enter.LdcString(cf.Name()).LdcString(name)
			enter.InvokeStatic("dvm/Audit", "enter", "(Ljava/lang/String;Ljava/lang/String;)V")
			exit := rewrite.NewSnippet(cf.Pool)
			exit.LdcString(cf.Name()).LdcString(name)
			exit.InvokeStatic("dvm/Audit", "exit", "(Ljava/lang/String;Ljava/lang/String;)V")
			plan.enter = enter.Insts() // classfile:allow-alias — as fu
			plan.exit = exit.Insts()   // classfile:allow-alias — as fu
			plan.sites += 2
		}
	}
	return plans, nil
}

// Attach wires a client VM to the collector: performs the handshake and
// routes the dvm/Audit and dvm/Profile dynamic components to the central
// console. It returns the assigned session id.
func Attach(vm *jvm.VM, c *Collector, info ClientInfo) string {
	session := c.Handshake(info)
	vm.OnAudit = func(e jvm.AuditEvent) {
		// Errors (unknown session) cannot happen for a live handshake;
		// the audit path must not disturb the application.
		_ = c.Record(session, e.Class, e.Method, e.Kind)
	}
	vm.OnFirstUse = func(class, method, desc string) {
		_ = c.Record(session, class, method+" "+desc, "note")
	}
	return session
}

// SkipInitializers is a Config.Skip helper that leaves constructors and
// class initializers uninstrumented.
func SkipInitializers(class, method string) bool {
	return strings.HasPrefix(method, "<")
}
