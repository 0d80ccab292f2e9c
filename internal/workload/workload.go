// Package workload synthesizes the evaluation's benchmark applications
// as real, runnable classfiles.
//
// The paper's Figure 5 suite (JLex, Javacup, Pizza, Instantdb, Cassowary)
// and the Figure 11 graphical applets are proprietary-era binaries we
// cannot ship; what the experiments actually depend on is their *shape* —
// class counts, code volume, instruction mix, call density, and the
// fraction of transferred code that is never invoked. This generator
// reproduces those shapes deterministically (seeded PRNG): each workload
// is a package of generated classes whose hot path performs real
// computation of the appropriate flavor (scanner table walks, parse-table
// interpretation, multi-pass lowering, TPC-A-style keyed updates,
// iterative constraint relaxation) and whose cold methods provide the
// realistic never-invoked bulk.
//
// All workloads run on the DVM client runtime, survive the verifier, and
// print a deterministic checksum, so monolithic and DVM configurations
// can be checked for identical behavior.
package workload

import (
	"fmt"

	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
)

// Kind selects the computational flavor of a generated application.
type Kind int

// Workload kinds, matching the Figure 5 suite.
const (
	KindLexer      Kind = iota // JLex: scanner table construction + scanning
	KindParser                 // Javacup: LALR-style table walks
	KindCompiler               // Pizza: multi-pass lowering over many classes
	KindDatabase               // Instantdb: TPC-A-like keyed updates
	KindConstraint             // Cassowary: iterative relaxation
	KindApplet                 // Figure 11 graphical applets
)

func (k Kind) String() string {
	switch k {
	case KindLexer:
		return "lexer"
	case KindParser:
		return "parser"
	case KindCompiler:
		return "compiler"
	case KindDatabase:
		return "database"
	case KindConstraint:
		return "constraint"
	case KindApplet:
		return "applet"
	}
	return "?"
}

// Spec describes one application to generate.
type Spec struct {
	Name        string // display name (paper's benchmark name)
	Package     string // internal package prefix, e.g. "jlex"
	Kind        Kind
	Classes     int // number of classes (Figure 5 column)
	TargetBytes int // approximate total classfile bytes (Figure 5 column)
	// ColdFraction is the fraction of generated methods that the startup
	// path never invokes (10-30% per [Sirer et al. 99]).
	ColdFraction float64
	// WorkUnits scales how much computation main performs.
	WorkUnits int
	Seed      uint64
	// Description mirrors Figure 5's description column.
	Description string
}

// MainClass returns the application entry class name.
func (s Spec) MainClass() string { return s.Package + "/Main" }

// Benchmarks returns the Figure 5 suite with class counts and sizes
// matched to the paper's table (sizes are approximate targets; Generate
// reports the exact figure).
func Benchmarks() []Spec {
	return []Spec{
		{Name: "JLex", Package: "jlex", Kind: KindLexer, Classes: 20,
			TargetBytes: 91 * 1024, ColdFraction: 0.20, WorkUnits: 40, Seed: 101,
			Description: "Lexical analyzer generator"},
		{Name: "Javacup", Package: "javacup", Kind: KindParser, Classes: 35,
			TargetBytes: 130 * 1024, ColdFraction: 0.22, WorkUnits: 30, Seed: 102,
			Description: "LALR parser compiler"},
		{Name: "Pizza", Package: "pizza", Kind: KindCompiler, Classes: 241,
			TargetBytes: 825 * 1024, ColdFraction: 0.25, WorkUnits: 6, Seed: 103,
			Description: "Bytecode to native compiler"},
		{Name: "Instantdb", Package: "instantdb", Kind: KindDatabase, Classes: 70,
			TargetBytes: 312 * 1024, ColdFraction: 0.22, WorkUnits: 60, Seed: 104,
			Description: "Relational database with a TPC-A like workload"},
		{Name: "Cassowary", Package: "cassowary", Kind: KindConstraint, Classes: 34,
			TargetBytes: 85 * 1024, ColdFraction: 0.18, WorkUnits: 50, Seed: 105,
			Description: "Constraint satisfier"},
	}
}

// Applets returns the Figure 11/12 graphical application suite. Sizes
// are chosen so startup times over 28.8 Kb/s–1 MB/s links span the
// figure's 10–1000 s range; cold fractions drive the Figure 12
// improvements (largest for the most padded UI suites).
func Applets() []Spec {
	return []Spec{
		{Name: "Java Work Shop", Package: "jws", Kind: KindApplet, Classes: 160,
			TargetBytes: 1500 * 1024, ColdFraction: 0.30, WorkUnits: 4, Seed: 201},
		{Name: "Java Studio", Package: "jstudio", Kind: KindApplet, Classes: 120,
			TargetBytes: 1000 * 1024, ColdFraction: 0.28, WorkUnits: 4, Seed: 202},
		{Name: "Hot Java", Package: "hotjava", Kind: KindApplet, Classes: 100,
			TargetBytes: 750 * 1024, ColdFraction: 0.25, WorkUnits: 4, Seed: 203},
		{Name: "Net Charts", Package: "netcharts", Kind: KindApplet, Classes: 60,
			TargetBytes: 400 * 1024, ColdFraction: 0.22, WorkUnits: 4, Seed: 204},
		{Name: "CQ", Package: "cq", Kind: KindApplet, Classes: 40,
			TargetBytes: 250 * 1024, ColdFraction: 0.18, WorkUnits: 4, Seed: 205},
		{Name: "Animated UI", Package: "animui", Kind: KindApplet, Classes: 25,
			TargetBytes: 120 * 1024, ColdFraction: 0.15, WorkUnits: 4, Seed: 206},
	}
}

// App is a generated application.
type App struct {
	Spec    Spec
	Classes map[string][]byte
	// TotalBytes is the exact generated size.
	TotalBytes int
	// HotMethods / ColdMethods count generated worker methods by kind.
	HotMethods, ColdMethods int
}

// Generate builds the application described by spec.
func Generate(spec Spec) (*App, error) {
	if spec.Classes < 2 {
		return nil, fmt.Errorf("workload: %s: need at least 2 classes", spec.Name)
	}
	if spec.WorkUnits <= 0 {
		spec.WorkUnits = 1
	}
	g := &generator{
		spec: spec,
		rng:  rng{state: spec.Seed*0x9E3779B97F4A7C15 + 1},
		out:  make(map[string][]byte),
	}
	if err := g.run(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.Name, err)
	}
	total := 0
	for _, b := range g.out {
		total += len(b)
	}
	return &App{
		Spec:        spec,
		Classes:     g.out,
		TotalBytes:  total,
		HotMethods:  g.hotMethods,
		ColdMethods: g.coldMethods,
	}, nil
}

// generator carries state through one build.
type generator struct {
	spec        Spec
	rng         rng
	out         map[string][]byte
	hotMethods  int
	coldMethods int
}

// rng is the deterministic PRNG all generation decisions come from.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (g *generator) className(i int) string {
	return fmt.Sprintf("%s/C%03d", g.spec.Package, i)
}

// run generates the worker classes and the Main driver.
func (g *generator) run() error {
	nWorkers := g.spec.Classes - 1
	// Per-class byte budget, reserving ~8% for Main.
	perClass := g.spec.TargetBytes * 92 / 100 / nWorkers

	for i := 0; i < nWorkers; i++ {
		data, err := g.workerClass(i, nWorkers, perClass)
		if err != nil {
			return err
		}
		g.out[g.className(i)] = data
	}
	mainBytes, err := g.mainClass(nWorkers)
	if err != nil {
		return err
	}
	g.out[g.spec.MainClass()] = mainBytes
	return nil
}

const pub = classfile.AccPublic
const pubStatic = classfile.AccPublic | classfile.AccStatic

// workerClass builds one worker: a hot entry method `run(I)I` whose body
// matches the workload kind, additional hot helpers, cold methods
// (ColdFraction of the byte budget — the code a run never touches), and
// a hot `resources` method carrying the remaining constant bulk (string
// tables, UI text) that real startup paths do load and touch.
func (g *generator) workerClass(idx, nWorkers, targetBytes int) ([]byte, error) {
	b := classgen.NewClass(g.className(idx), "java/lang/Object")
	b.Field(classfile.AccPrivate|classfile.AccStatic, "state", "I")
	b.DefaultInit()

	// The hot entry point: touch the resource bulk (guarded, once per
	// class), run the flavor-specific computation, then chain into the
	// next worker so the suite has realistic call chains.
	b.Field(classfile.AccPrivate|classfile.AccStatic, "resLoaded", "Z")
	run := b.Method(pubStatic, "run", "(I)I")
	skip := run.NewLabel()
	run.GetStatic(g.className(idx), "resLoaded", "Z")
	run.Branch(bytecode.Ifne, skip)
	run.IConst(1).PutStatic(g.className(idx), "resLoaded", "Z")
	run.InvokeStatic(g.className(idx), "resources", "()I")
	run.Pop()
	run.Mark(skip)
	g.emitKernel(b, run, idx)
	if idx+1 < nWorkers {
		// acc on stack; chain into the next class with a dampened arg.
		run.IConst(127).Inst(bytecode.Iand)
		run.InvokeStatic(g.className(idx+1), "run", "(I)I")
	}
	run.IReturn()
	g.hotMethods++

	// Hot helpers used by the kernel.
	g.emitHelpers(b, idx)

	// Cold bulk: methods the startup path never calls, carrying
	// alternate code paths and error resources.
	coldBudget := int(float64(targetBytes) * g.spec.ColdFraction)
	built := 0
	for c := 0; built < coldBudget; c++ {
		built += g.emitColdMethod(b, idx, c)
		g.coldMethods++
		if c > 400 {
			break
		}
	}

	// Measure, then fill the remaining budget with the *hot* resource
	// method run() touches (reserve ~80 bytes for its header).
	probe, err := b.BuildBytes()
	if err != nil {
		return nil, err
	}
	missing := targetBytes - len(probe) - 80
	res := b.Method(pubStatic, "resources", "()I")
	total, n := 0, 0
	for total < missing {
		chunk := 160
		if missing-total < chunk {
			chunk = missing - total
		}
		if chunk < 8 {
			break
		}
		s := g.text(chunk - 6) // utf8 header + ldc overhead
		res.LdcString(s)
		res.Pop()
		total += chunk
		n++
		if n > 4000 {
			break
		}
	}
	res.IConst(int32(n)).IReturn()
	g.hotMethods++
	return b.BuildBytes()
}

// text produces deterministic pseudo-prose of the requested length.
func (g *generator) text(n int) string {
	if n <= 0 {
		return ""
	}
	words := []string{"table", "state", "token", "parse", "emit", "check",
		"index", "frame", "cache", "flush", "error", "panel", "label", "menu"}
	buf := make([]byte, 0, n+8)
	for len(buf) < n {
		w := words[g.rng.intn(len(words))]
		buf = append(buf, w...)
		buf = append(buf, ' ')
	}
	return string(buf[:n])
}

// PadPool returns the class with Integer constants appended to its
// constant pool until constant_pool_count is count. The result is a valid
// class of the same behaviour; at a count near 65535 it leaves the
// rewriting services no room for the constants they add, which is the
// input the pool-overflow tests need.
func PadPool(data []byte, count int) ([]byte, error) {
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if cf.Pool.Size() > count {
		return nil, fmt.Errorf("workload: pool already holds %d constants, cannot pad to %d", cf.Pool.Size(), count)
	}
	for v := int32(1 << 20); cf.Pool.Size() < count && cf.Pool.Err() == nil; v++ {
		cf.Pool.AddInteger(v)
	}
	return cf.Encode()
}
