// Package eval is the experiment harness: it reconstructs every table
// and figure of the paper's evaluation (§4, §5) over this repository's
// implementations, wiring together the workload generator, the proxy
// pipeline, both client architectures, and the network simulator.
//
// Each FigN function returns structured rows plus a text rendering, so
// the same code backs the dvmbench command and the benchmark suite. See
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
// comparisons.
package eval

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dvm/internal/compiler"
	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
	"dvm/internal/workload"
)

// StandardPolicyXML is the evaluation's organization policy: it grants
// the benchmark domain what it needs while forcing the DVM services "to
// parse every class and examine every instruction" — security checks on
// collection updates, file and property access, and audit on every
// method boundary.
const StandardPolicyXML = `
<policy>
  <domain id="apps">
    <grant permission="*" target="*"/>
  </domain>
  <assign domain="apps" codebase="*"/>
  <operation permission="collection.put" class="java/util/Hashtable" method="put"/>
  <operation permission="property.get" class="java/lang/System" method="getProperty" desc="(Ljava/lang/String;)Ljava/lang/String;" target="arg"/>
  <operation permission="file.open" class="java/io/FileInputStream" method="&lt;init&gt;" desc="(Ljava/lang/String;)V" target="arg"/>
  <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
  <operation permission="thread.setPriority" class="java/lang/Thread" method="setPriority"/>
</policy>`

// StandardPolicy parses StandardPolicyXML.
func StandardPolicy() *security.Policy {
	p, err := security.ParsePolicy([]byte(StandardPolicyXML))
	if err != nil {
		panic("eval: standard policy: " + err.Error())
	}
	return p
}

// ServicePipeline is the pipeline dvmproxy serves (proxy.ServicePipeline),
// the one every experiment and the benchmark measure.
func ServicePipeline(policy *security.Policy, compile bool) *rewrite.Pipeline {
	return proxy.ServicePipeline(policy, compile)
}

// MonoClient is the monolithic baseline: all services embedded in the
// client.
type MonoClient struct {
	VM         *jvm.VM
	VerifyTime time.Duration
	Census     verifier.Census
	// AuditLog is the client-local audit store (monolithic VMs keep their
	// logs on the node — which is exactly the tamperability problem §3.3
	// identifies).
	AuditLog *monitor.Collector
	session  string
}

// NewMonolithic builds a monolithic client over the classes: local
// verifier at load time, stack-introspection security at the anticipated
// library hooks, and a VM-embedded auditing service recording equivalent
// events to a node-local log.
func NewMonolithic(loader jvm.ClassLoader, policy *security.Policy,
	withVerify, withAudit bool) (*MonoClient, error) {
	mc := &MonoClient{}
	vm, err := jvm.New(loader, io.Discard)
	if err != nil {
		return nil, err
	}
	if withVerify {
		vm.LoadHooks = append(vm.LoadHooks, verifier.LocalHook(&mc.Census, &mc.VerifyTime))
	}
	if policy != nil {
		vm.BuiltinChecks = security.NewStackIntrospection(policy)
	}
	if withAudit {
		mc.AuditLog = monitor.NewCollector()
		mc.session = mc.AuditLog.Handshake(monitor.ClientInfo{User: "local", JVMVersion: "1.2-mono"})
		vm.OnMethodEnter = func(class, method string) {
			if !monitor.SkipInitializers(class, method) {
				_ = mc.AuditLog.Record(mc.session, class, method, "enter")
			}
		}
		vm.OnMethodExit = func(class, method string) {
			if !monitor.SkipInitializers(class, method) {
				_ = mc.AuditLog.Record(mc.session, class, method, "exit")
			}
		}
	}
	mc.VM = vm
	return mc, nil
}

// DVMClient is a client in the distributed architecture: a bare runtime
// hosting the dynamic service components, fed by the proxy.
type DVMClient struct {
	VM        *jvm.VM
	Manager   *security.Manager
	Collector *monitor.Collector
	Session   string
}

// NewDVMClient wires a client to a proxy and security server.
func NewDVMClient(p *proxy.Proxy, clientID string, secServer *security.Server,
	coll *monitor.Collector) (*DVMClient, error) {
	vm, err := jvm.New(p.Loader(clientID, compiler.ArchDVM), io.Discard)
	if err != nil {
		return nil, err
	}
	c := &DVMClient{VM: vm, Collector: coll}
	if secServer != nil {
		c.Manager = security.NewManager(secServer, "apps")
		vm.CheckAccess = c.Manager
	}
	if coll != nil {
		c.Session = monitor.Attach(vm, coll, monitor.ClientInfo{
			User: clientID, Arch: compiler.ArchDVM, JVMVersion: "1.2-dvm",
		})
	}
	return c, nil
}

// GenerateAll builds every app in specs.
func GenerateAll(specs []workload.Spec) ([]*workload.App, error) {
	apps := make([]*workload.App, 0, len(specs))
	for _, s := range specs {
		app, err := workload.Generate(s)
		if err != nil {
			return nil, err
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// ScaleSpecs shrinks workload specs by the given divisor for quick runs
// (tests and -short benchmarks); divisor 1 returns the paper-scale suite.
func ScaleSpecs(specs []workload.Spec, divisor int) []workload.Spec {
	if divisor <= 1 {
		return specs
	}
	out := make([]workload.Spec, len(specs))
	for i, s := range specs {
		s.Classes = maxInt(2, s.Classes/divisor)
		s.TargetBytes = maxInt(8*1024, s.TargetBytes/divisor)
		s.WorkUnits = maxInt(1, s.WorkUnits/divisor)
		out[i] = s
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// table renders rows with a header into aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
