package workload

import (
	"strings"

	"dvm/internal/asm"
)

// Adversarial is a small class built to cost the verifier's phase 3, or
// the max_stack computation after it, far more than its size: both must
// stay bounded on it, whatever its verdict (ROADMAP item 10c). None is part of Benchmarks or Applets.
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
//   - JsrLoop: 0: jsr 6; 3: goto 0; 6: astore_1; 7: ret 1 — a loop
//     around a subroutine call, which phase 3 accepts and on which a
//     max_stack fixpoint that continues a jsr's fall-through one higher
//     never ends;
//   - JsrLoopTwin: the same loop around 10 000 calls of the subroutine.
func AdversarialClasses() ([]Adversarial, error) {
	const jsrLoop = "L0:\njsr Lsub\ngoto L0\nLsub:\nastore_1\nret 1\n"
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
		{"JsrLoop", method("JsrLoop", "()V", jsrLoop)},
		{"JsrLoopTwin", method("JsrLoopTwin", "()V", "L0:\n"+strings.Repeat("jsr Lsub\n", 10000)+"goto L0\nLsub:\nastore_1\nret 1\n")},
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
