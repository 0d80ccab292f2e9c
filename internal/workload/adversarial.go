package workload

import (
	"strings"

	"dvm/internal/asm"
)

// Adversarial is a small class built to cost the verifier's phase 3 far
// more than its size: the verifier must stay bounded on it, whatever its
// verdict (ROADMAP item 10c). None is part of Benchmarks or Applets.
type Adversarial struct {
	Name string // the class's internal name
	Data []byte
}

// AdversarialClasses builds the adversarial corpus:
//
//   - LocalsBomb: iconst_0; istore 65534, then 200 × (iconst_0; pop),
//     then return — 510 bytes that declare 65 535 locals, every one of
//     them in every frame of the straight-line code;
//   - StackTwin: 5000 × iconst_0, then 5000 × pop — the same with a
//     5000-deep operand stack in place of the locals;
//   - TernaryJoin: Object o = b ? "s" : i; use(o), whose join merges a
//     String with an Integer after the straight-line pass from it has run
//     once, so a re-pass meets instructions that are no join point.
func AdversarialClasses() ([]Adversarial, error) {
	method := func(class, desc, body string) string {
		return ".class public dvm/adversary/" + class + "\n.super java/lang/Object\n" +
			".method public static run " + desc + "\n" + body + ".end method\n"
	}
	srcs := []struct{ name, src string }{
		{"LocalsBomb", method("LocalsBomb", "()V",
			"iconst_0\nistore 65534\n"+strings.Repeat("iconst_0\npop\n", 200)+"return\n")},
		{"StackTwin", method("StackTwin", "()V",
			strings.Repeat("iconst_0\n", 5000)+strings.Repeat("pop\n", 5000)+"return\n")},
		{"TernaryJoin", method("TernaryJoin", "(ZLjava/lang/Integer;)V", `iload_0
ifeq Lint
ldc "s"
goto Ljoin
Lint:
aload_1
Ljoin:
astore_2
aload_2
invokestatic dvm/adversary/TernaryJoin use (Ljava/lang/Object;)V
return
`) + ".method public static use (Ljava/lang/Object;)V\nreturn\n.end method\n"},
	}
	out := make([]Adversarial, len(srcs))
	for i, s := range srcs {
		data, err := asm.AssembleBytes(s.src)
		if err != nil {
			return nil, err
		}
		out[i] = Adversarial{Name: "dvm/adversary/" + s.name, Data: data}
	}
	return out, nil
}
