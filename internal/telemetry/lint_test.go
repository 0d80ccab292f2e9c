package telemetry

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// exportAllowlist names the exported identifiers TestExportedCallerLint
// lets stand without a caller, each with the open ROADMAP item that will
// give it one. An entry the lint no longer flags fails it too.
var exportAllowlist = map[string]string{
	"monitor.OpcodeProfile":            "ROADMAP 8c: superinstructions chosen from the monitor's opcode profile",
	"monitor.FormatProfile":            "ROADMAP 8c: superinstructions chosen from the monitor's opcode profile",
	"monitor.Collector.FirstUseOrders": "ROADMAP 21a: bundle answers in first-use order",
	"optimize.Profile.ClassOrder":      "ROADMAP 21a: bundle answers in first-use order",
}

// TestExportedCallerLint is the dead-export check: every exported
// top-level func, type, var and const in non-test internal/ code, and
// every exported method of an exported type, has a caller. A name is
// used when non-test code in internal/, cmd/, examples/ or bench/ refers
// to it (a bare identifier in its own package, pkg.Name elsewhere), or a
// _test.go file in another package directory does: test-support APIs
// live in non-test files because Go shares no _test.go file across
// packages. A method's receiver is no use of its type. A method counts as used when any .Name selector appears,
// which is conservative; methods an interface in the scanned code names,
// and those of the standard interfaces in stdlibMethods, are exempt.
func TestExportedCallerLint(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	violations, err := lintExportedCallers(root, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("export-lint: delete an exported name nobody calls, move a test-only one into its package's export_test.go, or allowlist it with the ROADMAP item that will call it\n  %s",
			strings.Join(violations, "\n  "))
	}
}

// stdlibMethods are methods standard-library interfaces call (fmt,
// errors, io, net/http, encoding, context, sort), which no declared
// interface in this module names.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Read": true, "Write": true, "Close": true,
	"ServeHTTP": true, "MarshalText": true, "UnmarshalText": true, "MarshalBinary": true,
	"UnmarshalBinary": true, "Header": true, "WriteHeader": true, "Deadline": true,
	"Done": true, "Err": true, "Value": true, "Len": true, "Less": true, "Swap": true,
}

// exportedName is one exported declaration of a package under internal/.
type exportedName struct {
	key    string // pkg.Name, or pkg.Type.Method
	dir    string // the package's directory
	pos    token.Pos
	method string // the method's name; "" for a package-level name
	ref    string // import path + "." + name, as used records it
}

type lintedFile struct {
	f    *ast.File
	dir  string
	test bool
}

// lintExportedCallers parses the module under root (import path "dvm")
// and reports each exported name under internal/ with no caller, each
// allowlisted name that has one, and each allowlisted name that is gone.
func lintExportedCallers(root string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	var files []lintedFile
	pkgNames := make(map[string]string) // import path → package name
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.Walk(filepath.Join(root, top), func(path string, info os.FileInfo, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return nil
				}
				return err
			}
			if info.IsDir() {
				// bench/out holds bench/run.sh's binary and Go caches.
				if info.Name() == "testdata" || path == filepath.Join(root, "bench", "out") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			lf := lintedFile{f: f, dir: filepath.ToSlash(rel), test: strings.HasSuffix(path, "_test.go")}
			if !lf.test {
				pkgNames["dvm/"+lf.dir] = f.Name.Name
			}
			files = append(files, lf)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var decls []exportedName
	declared := make(map[token.Pos]bool)
	exempt := make(map[string]bool)
	for name := range stdlibMethods {
		exempt[name] = true
	}
	for _, lf := range files {
		if lf.test {
			continue
		}
		ast.Inspect(lf.f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						exempt[id.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(lf.dir, "internal/") {
			continue
		}
		pkg, path := lf.f.Name.Name, "dvm/"+lf.dir
		add := func(id *ast.Ident, key, method string) {
			declared[id.Pos()] = true
			if id.IsExported() {
				decls = append(decls, exportedName{key: key, dir: lf.dir, pos: id.Pos(), method: method, ref: path + "." + id.Name})
			}
		}
		for _, d := range lf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, pkg+"."+d.Name.Name, "")
				} else if recv := receiverType(d.Recv.List[0].Type); recv != "" && ast.IsExported(recv) {
					add(d.Name, pkg+"."+recv+"."+d.Name.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pkg+"."+id.Name, "")
						}
					}
				}
			}
		}
	}

	used := make(map[string]bool)                  // import path + "." + name
	selInCode := make(map[string]bool)             // .Name selectors in non-test files
	selInTests := make(map[string]map[string]bool) // .Name → directories of the test files it appears in
	for _, lf := range files {
		imports := make(map[string]string) // local name → import path
		for _, imp := range lf.f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, "dvm/") {
				continue
			}
			name := pkgNames[path]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		own := "dvm/" + lf.dir
		var inspect func(n ast.Node) bool
		inspect = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A receiver names its type without using it.
				ast.Inspect(n.Type, inspect)
				if n.Body != nil {
					ast.Inspect(n.Body, inspect)
				}
				return false
			case *ast.SelectorExpr:
				name := n.Sel.Name
				if lf.test {
					if selInTests[name] == nil {
						selInTests[name] = make(map[string]bool)
					}
					selInTests[name][lf.dir] = true
				} else {
					selInCode[name] = true
				}
				if x, ok := n.X.(*ast.Ident); ok {
					// A test in the package's own directory is no caller.
					if path, ok := imports[x.Name]; ok && !(lf.test && path == own) {
						used[path+"."+name] = true
					}
				}
				ast.Inspect(n.X, inspect)
				return false
			case *ast.Ident:
				if !lf.test && !declared[n.Pos()] {
					used[own+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(lf.f, inspect)
	}

	flagged := make(map[string]bool)
	var out []string
	for _, d := range decls {
		if d.method != "" {
			if exempt[d.method] || selInCode[d.method] {
				continue
			}
			other := false
			for dir := range selInTests[d.method] {
				other = other || dir != d.dir
			}
			if other {
				continue
			}
		} else if used[d.ref] {
			continue
		}
		flagged[d.key] = true
		if _, ok := allow[d.key]; !ok {
			pos := fset.Position(d.pos)
			rel, _ := filepath.Rel(root, pos.Filename)
			out = append(out, fmt.Sprintf("%s:%d: %s has no caller outside its package's tests", filepath.ToSlash(rel), pos.Line, d.key))
		}
	}
	var stale []string
	for key, why := range allow {
		if !flagged[key] {
			stale = append(stale, fmt.Sprintf("allowlist: %s (%s) is not an uncalled export; drop the entry", key, why))
		}
	}
	sort.Strings(stale)
	return append(out, stale...), nil
}

// receiverType is the type name of a method's receiver: T in T, *T,
// T[P] and *T[P].
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// TestExportedCallerLintDetects proves the rule has teeth on a planted
// tree: an export nobody calls, one only its own package's test calls,
// an uncalled method and a type named only by its methods' receivers are
// flagged; one another package's test calls, one its own package uses, a
// method a declared interface names and a standard one are not; and an
// allowlist entry silences a flagged name but fails once the name has a
// caller.
func TestExportedCallerLintDetects(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"internal/alpha/alpha.go": `package alpha

const Used = 1

func Unused() {}

func OwnTestOnly() {}

func OtherTestOnly() {}

func Helper() int { return Used }

type Thing struct{}

func (Thing) Hidden()        {}
func (Thing) String() string { return "" }
func (Thing) Dead()          {}

type Lonely int

func (l Lonely) String() string { return "" }
`,
		"internal/alpha/alpha_test.go": `package alpha

func callOwn() { OwnTestOnly(); Thing{}.Dead() }
`,
		"internal/beta/beta.go": `package beta

import a "dvm/internal/alpha"

type hider interface{ Hidden() }

var _ hider = a.Thing{}

func run() int { return a.Helper() }
`,
		"internal/beta/beta_test.go": `package beta

import "dvm/internal/alpha"

func callOther() { alpha.OtherTestOnly() }
`,
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"no allowlist", nil, []string{"alpha.go:5: alpha.Unused has no caller", "alpha.go:7: alpha.OwnTestOnly has no caller", "alpha.go:17: alpha.Thing.Dead has no caller", "alpha.go:19: alpha.Lonely has no caller"}},
		{"allowlisted", map[string]string{"alpha.Unused": "item 1"}, []string{"alpha.OwnTestOnly has no caller", "alpha.Thing.Dead has no caller", "alpha.Lonely has no caller"}},
		{"stale entry", map[string]string{"alpha.OtherTestOnly": "item 1"}, []string{"alpha.Unused has no caller", "alpha.OwnTestOnly has no caller", "alpha.Thing.Dead has no caller", "alpha.Lonely has no caller", "allowlist: alpha.OtherTestOnly (item 1) is not an uncalled export"}},
	} {
		got, err := lintExportedCallers(root, tc.allow)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: lintExportedCallers flagged %d names, want %d:\n  %s", tc.name, len(got), len(tc.want), strings.Join(got, "\n  "))
		}
		for i, want := range tc.want {
			if !strings.Contains(got[i], want) {
				t.Errorf("%s: violation %d = %q, want it to mention %q", tc.name, i, got[i], want)
			}
		}
	}
}
