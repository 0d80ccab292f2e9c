package eval

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"dvm/internal/compiler"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/pipeline_golden.txt from this tree's pipeline")

// TestPipelineGoldenArtifacts pins the service pipeline's output across
// versions: an attested fleet votes on artifact digests, so a node running
// a later build of the pipeline must produce the bytes an earlier build
// did. TestServicePipelineDigestInvariant cannot see that — it compares a
// build with itself. The golden file holds one line per class of the
// serve-path benchmark's corpus (Benchmarks + Applets + one renamed
// Cassowary launch app, seed 0): the class name and the first 16 bytes of
// SHA-256 of the dvm-arch artifact, of the base-arch artifact, and of
// compiler.CompileArtifact(base).
func TestPipelineGoldenArtifacts(t *testing.T) {
	const path = "testdata/pipeline_golden.txt"
	names, classes := servePathCorpus(t)
	dvm, base := ServicePipeline(StandardPolicy(), true), ServicePipeline(StandardPolicy(), false)
	sum := func(b []byte) string { h := sha256.Sum256(b); return fmt.Sprintf("%x", h[:16]) }
	var got bytes.Buffer
	for _, name := range names {
		dctx := rewrite.NewContext()
		dctx.ClientArch = compiler.ArchDVM
		d, err := dvm.Process(classes[name], dctx)
		if err != nil {
			t.Fatalf("%s: dvm pipeline: %v", name, err)
		}
		b, err := base.Process(classes[name], rewrite.NewContext())
		if err != nil {
			t.Fatalf("%s: base pipeline: %v", name, err)
		}
		c, err := compiler.CompileArtifact(b)
		if err != nil {
			t.Fatalf("%s: CompileArtifact: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %s %s %s\n", name, sum(d), sum(b), sum(c))
	}
	compareGolden(t, path, got.Bytes())
}

// servePathCorpus is the serve-path benchmark's corpus (Benchmarks +
// Applets + one renamed Cassowary launch app, seed 0): the classes by
// name, and their names sorted.
func servePathCorpus(t *testing.T) ([]string, map[string][]byte) {
	t.Helper()
	specs := append(workload.Benchmarks(), workload.Applets()...)
	for _, s := range workload.Benchmarks() {
		if s.Package == "cassowary" {
			s.Package = "launch00"
			specs = append(specs, s)
		}
	}
	apps, err := GenerateAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string][]byte{}
	var names []string
	for _, app := range apps {
		for name, raw := range app.Classes {
			classes[name] = raw
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, classes
}

// compareGolden fails with the first differing line, so a mismatch names
// its input; with -update it rewrites the file instead.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs (later lines may too):\n  got  %s\n  want %s", path, i+1, g, w)
		}
	}
}
