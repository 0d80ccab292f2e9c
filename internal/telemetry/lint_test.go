package telemetry

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestTelemetryLint is the telemetry-lint CI check: request timing in
// service packages must go through telemetry (Timer, SpanTimer,
// Histogram), not ad-hoc time.Since / time.Now().Sub deltas, so every
// measured duration lands in a mergeable histogram or a trace span.
// It walks every non-test file under internal/ outside this package and
// fails on either pattern. A deliberate exception is marked with a
// `telemetry:allow` comment on the offending line.
//
// Bare time.Now() is still fine (wall-clock stamps, cache TTLs, clock
// hooks); only duration-delta idioms are flagged.
func TestTelemetryLint(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	internal := filepath.Join(root, "internal")
	var violations []string
	err = filepath.Walk(internal, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "telemetry" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		violations = append(violations, lintFile(t, path)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("telemetry-lint: request timing outside internal/telemetry must use telemetry.Timer / trace spans / histograms\n  %s",
			strings.Join(violations, "\n  "))
	}
}

func lintFile(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	timeAlias := importAlias(f, "time")
	if timeAlias == "" {
		return nil
	}
	allowed := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "telemetry:allow") {
				allowed[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var out []string
	flag := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		if allowed[p.Line] {
			return
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// time.Since(x)
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeAlias && sel.Sel.Name == "Since" {
			flag(call.Pos(), "time.Since")
			return true
		}
		// time.Now().Sub(x)
		if sel.Sel.Name == "Sub" {
			if inner, ok := sel.X.(*ast.CallExpr); ok {
				if isel, ok := inner.Fun.(*ast.SelectorExpr); ok {
					if id, ok := isel.X.(*ast.Ident); ok && id.Name == timeAlias && isel.Sel.Name == "Now" {
						flag(call.Pos(), "time.Now().Sub")
					}
				}
			}
		}
		return true
	})
	return out
}

// TestClassfileAliasLint is the zero-copy aliasing check: since the
// lazy codec made Attribute.Info and Code.Bytecode views into the
// parsed input buffer (released to a sync.Pool by ClassFile.Release),
// retaining one of those slices in anything that outlives the pipeline
// pass — a composite literal, a struct field, a map entry — is a
// use-after-release hazard. The rule flags exactly those retention
// sites in every non-test file outside internal/classfile that imports
// the classfile package; consuming uses (call arguments, locals,
// indexing) stay legal. A deliberate copy-free retention is marked
// with a `classfile:allow-alias` comment on the offending line, which
// is the reviewer's cue to check that the bytes provably outlive the
// retainer or were copied upstream.
//
// The decoded form of a method body is the same hazard one layer up: a
// MethodEditor's Insts and PCIndex() and a Snippet's Insts() are storage
// of the class's arena, which Release recycles too. Outside
// internal/rewrite and internal/bytecode (which own that storage) the
// rule flags them in the same three shapes, in every file that imports
// the rewrite package, with the same escape.
func TestClassfileAliasLint(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	for _, dir := range []string{"internal", "cmd"} {
		err = filepath.Walk(filepath.Join(root, dir), func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() {
				if info.Name() == "classfile" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			violations = append(violations, lintAliases(t, path)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(violations) > 0 {
		t.Fatalf("classfile-alias-lint: Attribute.Info / Code.Bytecode are views into a pooled buffer, MethodEditor.Insts / PCIndex() / Snippet.Insts() into the class's arena (both recycled by ClassFile.Release); copy before retaining, or annotate `classfile:allow-alias`\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// aliasFields are the classfile slice fields that may alias the pooled
// parse buffer; arenaFields and arenaCalls are the rewrite package's views
// into the class's arena.
var (
	aliasFields = map[string]bool{"Info": true, "Bytecode": true}
	arenaFields = map[string]bool{"Insts": true}
	arenaCalls  = map[string]bool{"Insts": true, "PCIndex": true}
)

// aliasSource unwraps parens and re-slicings; it reports whether expr
// bottoms out at a bare X.Info / X.Bytecode selector (the alias itself,
// as opposed to a value computed from it) or, with arena set, at X.Insts,
// X.Insts() or X.PCIndex().
func aliasSource(expr ast.Expr, arena bool) (string, bool) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if aliasFields[e.Sel.Name] || arena && arenaFields[e.Sel.Name] {
				return e.Sel.Name, true
			}
			return "", false
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && arena && len(e.Args) == 0 && arenaCalls[sel.Sel.Name] {
				return sel.Sel.Name + "()", true
			}
			return "", false
		default:
			return "", false
		}
	}
}

func lintAliases(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	// The arena rule applies where the rewrite package is imported, except
	// in the two packages that own the storage.
	dir := filepath.Base(filepath.Dir(path))
	arena := importAlias(f, "dvm/internal/rewrite") != "" && dir != "rewrite" && dir != "bytecode"
	if importAlias(f, "dvm/internal/classfile") == "" && !arena {
		return nil
	}
	allowed := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "classfile:allow-alias") {
				allowed[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var out []string
	flag := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		if allowed[p.Line] {
			return
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if name, ok := aliasSource(val, arena); ok {
					flag(val.Pos(), "."+name+" retained in composite literal")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				name, ok := aliasSource(rhs, arena)
				if !ok {
					continue
				}
				if len(node.Lhs) != len(node.Rhs) {
					continue
				}
				switch node.Lhs[i].(type) {
				case *ast.SelectorExpr:
					flag(rhs.Pos(), "."+name+" retained in struct field")
				case *ast.IndexExpr:
					flag(rhs.Pos(), "."+name+" retained in map/slice element")
				}
			}
		}
		return true
	})
	return out
}

// TestClassfileAliasLintDetects proves the rule has teeth: each
// retention shape is flagged on a synthetic file, consuming uses are
// not, and the allow-alias escape silences a line.
func TestClassfileAliasLintDetects(t *testing.T) {
	src := `package scratch

import "dvm/internal/classfile"

type keep struct{ b []byte }

func bad(a *classfile.Attribute, c *classfile.Code, m map[string][]byte) []keep {
	k := keep{b: a.Info}            // violation: composite literal
	k.b = c.Bytecode[2:]            // violation: struct field (re-slice)
	m["x"] = a.Info                 // violation: map element
	m["y"] = c.Bytecode             // classfile:allow-alias
	local := a.Info                 // ok: local
	_ = len(c.Bytecode)             // ok: consumed
	copied := append([]byte(nil), a.Info...) // ok: copy
	return []keep{{b: copied}, {b: local[:0]}, k}
}
`
	arenaSrc := `package scratch

import (
	"dvm/internal/bytecode"
	"dvm/internal/rewrite"
)

type plan struct {
	insts []bytecode.Inst
	index bytecode.PCIndex
}

func bad(ed *rewrite.MethodEditor, sn *rewrite.Snippet, m map[string][]bytecode.Inst) []plan {
	p := plan{insts: ed.Insts}       // violation: composite literal
	p.index = ed.PCIndex()           // violation: struct field
	m["x"] = sn.Insts()              // violation: map element
	p.insts = ed.Insts[1:]           // violation: struct field (re-slice)
	m["y"] = ed.Insts                // classfile:allow-alias
	local := ed.Insts                // ok: local
	_ = len(ed.PCIndex())            // ok: consumed
	_ = ed.InsertEntry(sn.Insts())   // ok: call argument
	ed.Insts = local[:0]             // ok: the editor's own field, not a retention of it
	copied := append([]bytecode.Inst(nil), ed.Insts...) // ok: copy
	return []plan{{insts: copied}, p}
}
`
	for _, tc := range []struct {
		name, dir, src string
		want           []string
	}{
		{"pooled buffer", "scratch", src, []string{"composite literal", "struct field", "map/slice element"}},
		{"arena", "scratch", arenaSrc, []string{"composite literal", "struct field", "map/slice element", "struct field"}},
		// The packages that own the arena may keep its slices.
		{"arena, owner", "rewrite", arenaSrc, nil},
	} {
		dir := filepath.Join(t.TempDir(), tc.dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "aliases.go")
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		got := lintAliases(t, path)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: lintAliases flagged %d sites, want %d:\n  %s", tc.name, len(got), len(tc.want), strings.Join(got, "\n  "))
		}
		for _, want := range tc.want {
			found := false
			for _, v := range got {
				if strings.Contains(v, want) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no violation mentions %q in %v", tc.name, want, got)
			}
		}
	}
}

// TestMetricDeclarationLint is the one-declaration-per-metric check: a
// metric is registered by the `metric` tag of its field in a
// declaration struct (Registry.Declare), so no non-test file under
// internal/ or cmd/ registers one by calling Counter("…") or
// Histogram("…", …) with a literal name, and no tag names a metric
// twice. internal/eval is exempt from the first rule: its experiments
// read a running node's metrics by name, as tests and bench/ do.
func TestMetricDeclarationLint(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var violations []string
	tags := make(map[string]string)
	for _, dir := range []string{"internal", "cmd"} {
		err = filepath.Walk(filepath.Join(root, dir), func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			violations = append(violations, lintMetrics(t, path, tags)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(tags) == 0 {
		t.Fatal("metric-lint: found no `metric` tag at all; the walk is broken")
	}
	if len(violations) > 0 {
		t.Fatalf("metric-lint: declare each metric once, as a tagged field of its subsystem's declaration struct\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// lintMetrics flags literal-name registrations in path and records its
// `metric` tags in tags (name → first position), flagging repeats.
func lintMetrics(t *testing.T, path string, tags map[string]string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	byName := filepath.Base(filepath.Dir(path)) == "eval"
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok || byName || len(node.Args) == 0 || sel.Sel.Name != "Counter" && sel.Sel.Name != "Histogram" {
				return true
			}
			if lit, ok := node.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				out = append(out, fmt.Sprintf("%s: %s(%s) registers a metric outside its declaration", fset.Position(node.Pos()), sel.Sel.Name, lit.Value))
			}
		case *ast.Field:
			if node.Tag == nil {
				return true
			}
			raw, err := strconv.Unquote(node.Tag.Value)
			if err != nil {
				return true
			}
			name, _, _ := strings.Cut(reflect.StructTag(raw).Get("metric"), ",")
			if name == "" {
				return true
			}
			pos := fset.Position(node.Pos()).String()
			if first, ok := tags[name]; ok {
				out = append(out, fmt.Sprintf("%s: metric %q declared again (first at %s)", pos, name, first))
			} else {
				tags[name] = pos
			}
		}
		return true
	})
	return out
}

// TestMetricDeclarationLintDetects proves the rule has teeth: literal
// registrations and a repeated tag are flagged, registration through a
// variable and a tag seen once are not, and internal/eval may read a
// metric by name.
func TestMetricDeclarationLintDetects(t *testing.T) {
	src := `package scratch

import "dvm/internal/telemetry"

type metrics struct {
	Hits   *telemetry.Counter   ` + "`metric:\"hits_total\"`" + `
	Misses *telemetry.Counter   ` + "`metric:\"hits_total\"`" + ` // violation: declared twice
	Batch  *telemetry.Histogram ` + "`metric:\"batch_bytes,bytes\"`" + `
	Plain  int                  ` + "`json:\"plain\"`" + `
}

func wire(reg *telemetry.Registry, name string) {
	reg.Counter("requests_total")         // violation: literal counter
	reg.Histogram("request_seconds", nil) // violation: literal histogram
	reg.Counter(name)                     // ok: not a literal
	reg.Gauge("queue_depth", nil)         // ok: gauges are not declared
}
`
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{"scratch", []string{`metric "hits_total" declared again`, `Counter("requests_total")`, `Histogram("request_seconds")`}},
		{"eval", []string{`metric "hits_total" declared again`}},
	} {
		dir := filepath.Join(t.TempDir(), tc.dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "metrics.go")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		tags := make(map[string]string)
		got := lintMetrics(t, path, tags)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: lintMetrics flagged %d sites, want %d:\n  %s", tc.dir, len(got), len(tc.want), strings.Join(got, "\n  "))
		}
		for i, want := range tc.want {
			if !strings.Contains(got[i], want) {
				t.Errorf("%s: violation %d = %q, want it to mention %q", tc.dir, i, got[i], want)
			}
		}
		if _, ok := tags["batch_bytes"]; !ok || len(tags) != 2 {
			t.Errorf("%s: recorded tags %v, want hits_total and batch_bytes", tc.dir, tags)
		}
	}
}

func importAlias(f *ast.File, pkg string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != pkg {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return pkg
	}
	return ""
}
