// Package security implements the DVM's distributed security service
// (paper §3.2) and the monolithic baseline it is evaluated against.
//
// The model derives from DTOS: security identifiers (protection domains)
// are associated with threads and security-critical objects, permissions
// with operations. An organization-wide policy — written in a high-level
// XML-based language — specifies:
//
//   - the access matrix relating security identifiers to permissions
//     (who may perform which operation on which targets);
//   - the mapping from named resources to security identifiers;
//   - the mapping from security operations to application code, i.e.
//     where the static service must insert access checks.
//
// The static component (Filter) rewrites incoming applications so that
// resource accesses are preceded by calls to the client-side enforcement
// manager (dvm/Enforce.check). The dynamic component (Manager) resolves
// those checks against the central policy, caching results, with a
// cache-invalidation protocol that lets the server propagate policy
// changes.
//
// StackIntrospection implements the JDK 1.2-style baseline: protection
// domains derived from code source, checked by walking the thread's call
// stack at the library hook points the original system designers
// anticipated.
package security

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// Policy is the parsed organization-wide policy.
type Policy struct {
	Domains    []Domain
	Assigns    []Assignment
	Resources  []Resource
	Operations []Operation

	domainByID map[string]*Domain
}

// Domain is one protection domain (security identifier) with its granted
// permissions.
type Domain struct {
	ID     string
	Grants []Grant
}

// Grant allows a permission on targets matching a glob pattern
// ("*" suffix wildcard; empty pattern means any target).
type Grant struct {
	Permission string
	Target     string
}

// Assignment maps code (by class-name codebase pattern) to a domain.
type Assignment struct {
	Domain   string
	Codebase string
}

// Resource maps a named resource pattern to a security identifier; the
// enforcement manager consults it to refine file-target decisions.
type Resource struct {
	Name string
	SID  string
}

// Operation maps a security operation to application code: calls to
// Class.Method(Desc) must be preceded by a check of Permission. TargetArg
// says how the check obtains its target operand:
//
//	"arg"  — the operation's last argument is a String naming the target
//	         (available on top of the operand stack at the call site);
//	"none" — no statically accessible target; the check passes "".
type Operation struct {
	Permission string
	Class      string
	Method     string
	Desc       string // "" matches any descriptor
	TargetArg  string // "arg" or "none"
}

// xml wire format
type xmlPolicy struct {
	XMLName    xml.Name       `xml:"policy"`
	Domains    []xmlDomain    `xml:"domain"`
	Assigns    []xmlAssign    `xml:"assign"`
	Resources  []xmlResource  `xml:"resource"`
	Operations []xmlOperation `xml:"operation"`
}

type xmlDomain struct {
	ID     string     `xml:"id,attr"`
	Grants []xmlGrant `xml:"grant"`
}

type xmlGrant struct {
	Permission string `xml:"permission,attr"`
	Target     string `xml:"target,attr"`
}

type xmlAssign struct {
	Domain   string `xml:"domain,attr"`
	Codebase string `xml:"codebase,attr"`
}

type xmlResource struct {
	Name string `xml:"name,attr"`
	SID  string `xml:"sid,attr"`
}

type xmlOperation struct {
	Permission string `xml:"permission,attr"`
	Class      string `xml:"class,attr"`
	Method     string `xml:"method,attr"`
	Desc       string `xml:"desc,attr"`
	TargetArg  string `xml:"target,attr"`
}

// ParsePolicy parses and validates the XML policy text.
func ParsePolicy(data []byte) (*Policy, error) {
	var xp xmlPolicy
	if err := xml.Unmarshal(data, &xp); err != nil {
		return nil, fmt.Errorf("security: policy parse: %w", err)
	}
	p := &Policy{domainByID: make(map[string]*Domain)}
	seen := make(map[string]bool)
	for _, d := range xp.Domains {
		if d.ID == "" {
			return nil, fmt.Errorf("security: domain without id")
		}
		if seen[d.ID] {
			return nil, fmt.Errorf("security: duplicate domain %q", d.ID)
		}
		seen[d.ID] = true
		nd := Domain{ID: d.ID}
		for _, g := range d.Grants {
			if g.Permission == "" {
				return nil, fmt.Errorf("security: domain %q: grant without permission", d.ID)
			}
			nd.Grants = append(nd.Grants, Grant{Permission: g.Permission, Target: g.Target})
		}
		p.Domains = append(p.Domains, nd)
	}
	for i := range p.Domains {
		p.domainByID[p.Domains[i].ID] = &p.Domains[i]
	}
	for _, a := range xp.Assigns {
		if _, ok := p.domainByID[a.Domain]; !ok {
			return nil, fmt.Errorf("security: assignment to unknown domain %q", a.Domain)
		}
		if a.Codebase == "" {
			return nil, fmt.Errorf("security: assignment with empty codebase")
		}
		p.Assigns = append(p.Assigns, Assignment{Domain: a.Domain, Codebase: a.Codebase})
	}
	for _, r := range xp.Resources {
		if r.Name == "" || r.SID == "" {
			return nil, fmt.Errorf("security: resource mapping needs name and sid")
		}
		p.Resources = append(p.Resources, Resource(r))
	}
	for _, o := range xp.Operations {
		if o.Permission == "" || o.Class == "" || o.Method == "" {
			return nil, fmt.Errorf("security: operation mapping needs permission, class, method")
		}
		ta := o.TargetArg
		if ta == "" {
			ta = "none"
		}
		if ta != "arg" && ta != "none" {
			return nil, fmt.Errorf("security: operation target mode %q invalid", o.TargetArg)
		}
		p.Operations = append(p.Operations, Operation{
			Permission: o.Permission, Class: o.Class, Method: o.Method,
			Desc: o.Desc, TargetArg: ta,
		})
	}
	return p, nil
}

// Encode serializes the policy back to XML (used by dvmpolicy and tests).
func (p *Policy) Encode() ([]byte, error) {
	xp := xmlPolicy{}
	for _, d := range p.Domains {
		xd := xmlDomain{ID: d.ID}
		for _, g := range d.Grants {
			xd.Grants = append(xd.Grants, xmlGrant(g))
		}
		xp.Domains = append(xp.Domains, xd)
	}
	for _, a := range p.Assigns {
		xp.Assigns = append(xp.Assigns, xmlAssign(a))
	}
	for _, r := range p.Resources {
		xp.Resources = append(xp.Resources, xmlResource(r))
	}
	for _, o := range p.Operations {
		xp.Operations = append(xp.Operations, xmlOperation{
			Permission: o.Permission, Class: o.Class, Method: o.Method,
			Desc: o.Desc, TargetArg: o.TargetArg,
		})
	}
	return xml.MarshalIndent(xp, "", "  ")
}

// DomainFor resolves the protection domain for a class name through the
// codebase assignments (first match wins); "" if unassigned.
func (p *Policy) DomainFor(className string) string {
	for _, a := range p.Assigns {
		if matchPattern(a.Codebase, className) {
			return a.Domain
		}
	}
	return ""
}

// Allowed evaluates the access matrix: may sid perform permission on
// target?
func (p *Policy) Allowed(sid, permission, target string) bool {
	d, ok := p.domainByID[sid]
	if !ok {
		return false
	}
	for _, g := range d.Grants {
		if g.Permission != permission && g.Permission != "*" {
			continue
		}
		if g.Target == "" || g.Target == "*" || matchPattern(g.Target, target) {
			return true
		}
	}
	return false
}

// GrantsFor returns the grant rows for a domain (the unit of policy
// download in the enforcement manager's first-touch fetch).
func (p *Policy) GrantsFor(sid string) []Grant {
	d, ok := p.domainByID[sid]
	if !ok {
		return nil
	}
	out := make([]Grant, len(d.Grants))
	copy(out, d.Grants)
	return out
}

// matchPattern implements the policy language's glob: a literal match, or
// a prefix match when the pattern ends in '*'.
func matchPattern(pattern, s string) bool {
	if pattern == "*" {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(s, pattern[:len(pattern)-1])
	}
	return pattern == s
}
