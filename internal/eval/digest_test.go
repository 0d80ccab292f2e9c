package eval

// Property test for the invariant quorum attestation stands on: the
// static-service pipeline is byte-deterministic, so the output digest
// for a given (policy, origin bytes) pair is identical across
// independently constructed pipelines — nodes that never shared state —
// and from one run to the next on each. If this ever breaks, digest votes
// would flag honest nodes as divergent; it must fail loudly here first.

import (
	"fmt"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/rewrite"
)

func TestServicePipelineDigestInvariant(t *testing.T) {
	const classes = 16
	origin, err := Corpus(classes, 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Reference digests: "node A". Fresh policy parse per pipeline, so
	// nothing is shared between the instances under test.
	refPipe := ServicePipeline(StandardPolicy(), true)
	ref := make(map[string]string, classes)
	for name, raw := range origin {
		out, err := refPipe.Process(raw, rewrite.NewContext())
		if err != nil {
			t.Fatalf("reference %s: %v", name, err)
		}
		ref[name] = attest.Digest(out)
	}
	for instance := 1; instance <= 4; instance++ {
		t.Run(fmt.Sprintf("instance=%d", instance), func(t *testing.T) {
			// "Node B", "C", …: an independent pipeline each, which sees
			// the corpus in a different (map) order than the reference did
			// and so parses each class into different recycled scratch.
			p := ServicePipeline(StandardPolicy(), true)
			for name, raw := range origin {
				out, err := p.Process(raw, rewrite.NewContext())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := attest.Digest(out); d != ref[name] {
					t.Errorf("%s: digest %.12s != reference %.12s — pipeline output depends on instance state or processing order", name, d, ref[name])
				}
			}
		})
	}
}
