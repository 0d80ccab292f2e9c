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
	"fmt"
	"sort"
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

// assumptionSet dedups assumptions while preserving deterministic order.
// An assumption is its own dedup identity: every field takes part.
type assumptionSet struct {
	seen map[Assumption]struct{}
	list []Assumption
}

func newAssumptionSet() *assumptionSet {
	return &assumptionSet{seen: make(map[Assumption]struct{})}
}

func (s *assumptionSet) add(a Assumption) {
	if _, dup := s.seen[a]; dup {
		return
	}
	s.seen[a] = struct{}{}
	s.list = append(s.list, a)
}

// byScope partitions assumptions per method scope, sorted for
// deterministic rewriting.
func byScope(as []Assumption) map[string][]Assumption {
	m := make(map[string][]Assumption)
	for _, a := range as {
		m[a.Scope] = append(m[a.Scope], a)
	}
	for _, v := range m {
		sort.Slice(v, func(i, j int) bool {
			if v[i].Kind != v[j].Kind {
				return v[i].Kind < v[j].Kind
			}
			if v[i].Class != v[j].Class {
				return v[i].Class < v[j].Class
			}
			if v[i].Name != v[j].Name {
				return v[i].Name < v[j].Name
			}
			return v[i].Desc < v[j].Desc
		})
	}
	return m
}
