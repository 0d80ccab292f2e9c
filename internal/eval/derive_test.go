package eval

import (
	"bytes"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/compiler"
	"dvm/internal/rewrite"
)

// TestCompileArtifactDerivesThePipeline is the derivation property
// (DESIGN.md §7): for every class of the serve-path corpus, the dvm-arch
// pipeline's output equals compiler.CompileArtifact applied to the
// base-arch pipeline's output, pipeline_dvm(raw) ==
// CompileArtifact(pipeline_base(raw)). Every filter ahead of the compiler
// is architecture-independent, so the compile filter's output is a
// function of the base artifact alone; a transform vote re-derives it
// whole. A class the pipeline rejects is rejected on both architectures
// or on neither: the corpus is accepted whole, and a few classes that
// fail to parse or to verify are rejected on both.
func TestCompileArtifactDerivesThePipeline(t *testing.T) {
	names, classes := servePathCorpus(t)
	bad := classgen.NewClass("bad/Phase3", "java/lang/Object")
	bad.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I").Return() // declares ()I, returns void
	raw, err := bad.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	classes["bad/Phase3"] = raw
	classes["bad/Truncated"] = classes[names[0]][:len(classes[names[0]])/2]
	names = append(names, "bad/Phase3", "bad/Truncated")

	dvm, base := ServicePipeline(StandardPolicy(), true), ServicePipeline(StandardPolicy(), false)
	var accepted, rejected int
	for _, name := range names {
		dctx := rewrite.NewContext()
		dctx.ClientArch = compiler.ArchDVM
		d, derr := dvm.Process(classes[name], dctx)
		b, berr := base.Process(classes[name], rewrite.NewContext())
		switch {
		case (derr == nil) != (berr == nil):
			t.Errorf("%s: rejected on one architecture only: dvm %v, base %v", name, derr, berr)
			continue
		case derr != nil:
			rejected++
			continue
		}
		c, err := compiler.CompileArtifact(b)
		if err != nil {
			t.Errorf("%s: CompileArtifact of the base artifact: %v", name, err)
			continue
		}
		if !bytes.Equal(c, d) {
			t.Errorf("%s: CompileArtifact(base) is %d bytes, the dvm pipeline's output %d; they differ", name, len(c), len(d))
		}
		accepted++
	}
	if accepted != len(names)-2 || rejected != 2 {
		t.Errorf("accepted %d and rejected %d of %d classes; want the corpus accepted and the 2 bad classes rejected", accepted, rejected, len(names))
	}
}
