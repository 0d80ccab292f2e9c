// Package verifier implements the DVM's distributed verification service
// (paper §3.1).
//
// Java verification has four phases. The first three operate on a single
// class file in isolation and run *statically* on the network server:
//
//	phase 1 — internal consistency of the class file (constant pool
//	          cross-references, descriptor syntax, flag combinations);
//	phase 2 — instruction integrity (valid opcodes, operands in range,
//	          branch targets on instruction boundaries);
//	phase 3 — type safety, by abstract interpretation over a type
//	          lattice.
//
// The fourth phase checks the assumptions a class makes about other
// classes in its namespace (imported fields, methods, and inheritance
// relationships). Those are inherently client-side, so the static
// verifier collects each assumption together with its scope and rewrites
// the class to perform the corresponding check at run time by invoking
// the small dvm/RTVerifier dynamic component — producing a
// *self-verifying application* (Figure 3). The dynamic component's job is
// "limited to a descriptor lookup and string comparison."
//
// The same Verify entry point, invoked from a jvm.LoadHook, doubles as
// the monolithic baseline's local verifier for the Figure 6/7
// comparisons.
package verifier

import (
	"cmp"
	"fmt"
	"strings"
	"sync"

	"dvm/internal/classfile"
	"dvm/internal/slab"
)

// Census counts the safety checks performed or deferred for one class —
// the raw material of the paper's Figure 8 table (static vs. dynamic
// checks).
type Census struct {
	Phase1 int // structural consistency checks performed
	Phase2 int // instruction integrity checks performed
	Phase3 int // dataflow type checks performed
	// DynamicInjected counts the RTVerifier invocations the rewriter
	// embedded into the class (the deferred phase-4 checks).
	DynamicInjected int
}

// Static returns the total checks performed on the server.
func (c Census) Static() int { return c.Phase1 + c.Phase2 + c.Phase3 }

// Add accumulates another census (used per-application).
func (c *Census) Add(o Census) {
	c.Phase1 += o.Phase1
	c.Phase2 += o.Phase2
	c.Phase3 += o.Phase3
	c.DynamicInjected += o.DynamicInjected
}

// AssumptionKind classifies a phase-4 assumption.
type AssumptionKind uint8

// Assumption kinds.
const (
	// AssumeField: the named class exports a field with this descriptor.
	AssumeField AssumptionKind = iota
	// AssumeMethod: the named class exports a method with this descriptor.
	AssumeMethod
	// AssumeAssignable: Class is assignable to Name (inheritance
	// assumptions — "fundamental assumptions, such as inheritance
	// relationships, affect the validity of the entire class").
	AssumeAssignable
	// AssumeExists: the named class exists in the client namespace.
	AssumeExists
)

func (k AssumptionKind) String() string {
	switch k {
	case AssumeField:
		return "field"
	case AssumeMethod:
		return "method"
	case AssumeAssignable:
		return "assignable"
	case AssumeExists:
		return "exists"
	}
	return "?"
}

// Assumption is one environmental fact a class relies on, with the scope
// the verification service computed for it: the method key ("name desc")
// whose instructions depend on it, or "" for class-wide scope.
type Assumption struct {
	Kind  AssumptionKind
	Class string // class the assumption is about
	Name  string // member name, or relation target for AssumeAssignable
	Desc  string // member descriptor
	Scope string // "name desc" of the dependent method; "" = whole class
}

// Error is a verification failure: the phase that rejected the class and
// why. The distributed service converts these into replacement classes
// that raise VerifyError on the client (§3.1: "verification errors are
// reflected to clients through the regular Java exception mechanisms").
type Error struct {
	Phase  int
	Class  string
	Method string // "" for class-level failures
	Msg    string
}

func (e *Error) Error() string {
	if e.Method != "" {
		return fmt.Sprintf("verifier: phase %d: %s.%s: %s", e.Phase, e.Class, e.Method, e.Msg)
	}
	return fmt.Sprintf("verifier: phase %d: %s: %s", e.Phase, e.Class, e.Msg)
}

// Result is the outcome of static verification of one class.
type Result struct {
	ClassName   string
	Census      Census
	Assumptions []Assumption
}

// finding is an assumption as verification collects it. Its scope is not
// spelled out: method is the dependent method's index in cf.Methods plus
// one, 0 for the whole class, so neither collecting nor grouping builds a
// "name desc" string. Phase 1 rejects two methods with one name and
// descriptor, so the index stands for the scope exactly.
type finding struct {
	Assumption // Scope is empty
	method     int32
}

// findings is the working memory of one class's verification and
// instrumentation, taken from findingsPool the way phase 3 takes its
// frames: the census, the assumptions in the order they were first met,
// the set that deduplicates them (an assumption is its own identity: every
// field takes part), and phase 1's table of the member names and
// descriptors seen.
type findings struct {
	census  Census
	list    []finding
	seen    map[finding]struct{}
	members map[memberKey]struct{}
}

type memberKey struct{ name, desc string }

var findingsPool = sync.Pool{New: func() any {
	return &findings{seen: make(map[finding]struct{}), members: make(map[memberKey]struct{})}
}}

// findingsKeep bounds, in entries, what pooled findings retain; a class
// that needed more gives its tables back to the collector.
const findingsKeep = 1 << 12

// poisonFinding is what release writes over the findings it recycles with
// slab.PoisonOnReset on: a kind no verifier collects, about no class.
var poisonFinding = finding{Assumption: Assumption{Kind: 0xFF, Class: "dvm: finding of a released class"}, method: -1}

func getFindings() *findings { return findingsPool.Get().(*findings) }

func (f *findings) release() {
	f.census = Census{}
	if slab.Poisoning() {
		slab.Fill(f.list, poisonFinding)
	} else {
		clear(f.list)
	}
	f.list = f.list[:0]
	if cap(f.list) > findingsKeep {
		f.list = nil
	}
	if len(f.seen) > findingsKeep {
		f.seen = make(map[finding]struct{})
	}
	clear(f.seen)
	if len(f.members) > findingsKeep {
		f.members = make(map[memberKey]struct{})
	}
	clear(f.members)
	findingsPool.Put(f)
}

func (f *findings) add(fd finding) {
	if _, dup := f.seen[fd]; dup {
		return
	}
	f.seen[fd] = struct{}{}
	f.list = append(f.list, fd)
}

// firstMember reports whether name and desc were not yet noted since the
// table was last cleared, and notes them.
func (f *findings) firstMember(name, desc string) bool {
	k := memberKey{name, desc}
	if _, dup := f.members[k]; dup {
		return false
	}
	f.members[k] = struct{}{}
	return true
}

// assumptions copies the findings out for a caller to own, each scope
// spelled "name desc" again.
func (f *findings) assumptions(cf *classfile.ClassFile) []Assumption {
	if len(f.list) == 0 {
		return nil
	}
	out := make([]Assumption, len(f.list))
	scope, at := "", int32(0)
	for i, fd := range f.list {
		if fd.method != at {
			scope, at = "", fd.method
			if at > 0 {
				m := cf.Methods[at-1]
				scope = cf.MemberName(m) + " " + cf.MemberDescriptor(m)
			}
		}
		out[i] = fd.Assumption
		out[i].Scope = scope
	}
	return out
}

// scope loads as into f, each assumption under the methods of cf its Scope
// names ("" is the class); an assumption that names no method is not
// checked.
func (f *findings) scope(cf *classfile.ClassFile, as []Assumption) {
	for _, a := range as {
		if a.Scope == "" {
			f.list = append(f.list, finding{Assumption: a})
		}
	}
	for i, m := range cf.Methods {
		name, desc := cf.MemberName(m), cf.MemberDescriptor(m)
		for _, a := range as {
			// s == name+" "+desc, without building the right-hand side.
			s := a.Scope
			if len(s) == len(name)+1+len(desc) && s[:len(name)] == name && s[len(name)] == ' ' && s[len(name)+1:] == desc {
				a.Scope = ""
				f.list = append(f.list, finding{Assumption: a, method: int32(i + 1)})
			}
		}
	}
}

// compareFindings orders findings by scope, then deterministically within
// one, for rewriting.
func compareFindings(a, b finding) int {
	if c := cmp.Compare(a.method, b.method); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := strings.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Desc, b.Desc)
}
