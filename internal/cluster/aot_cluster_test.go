package cluster_test

// Integration test for the fleet-shared AOT code cache: with the base
// architecture's artifacts resident, the compiled architecture costs
// the fleet exactly one derivation per class — zero extra origin
// fetches — and every derived artifact is sealed by a compile-mode
// quorum that variants answer by re-deriving with their own compilers.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

// aotProxyCfg is the base pipeline (verifier + compiler): the compiler
// filter is a no-op for the base architecture and quickens for
// compiler.ArchDVM, which is exactly the split the AOT cache exploits.
func aotProxyCfg(i int) proxy.Config {
	return proxy.Config{
		Pipeline:     rewrite.NewPipeline(verifier.Filter(), compiler.Filter()),
		CacheEnabled: true,
		AOTBaseArch:  aotBaseArch,
	}
}

const aotBaseArch = "jvm"

// TestAOTClusterCompileOnce drives a 3-node attested fleet through both
// architectures and asserts the headline property: the fleet pays one
// origin fetch and one compilation per class, total, no matter how many
// nodes serve the compiled form.
func TestAOTClusterCompileOnce(t *testing.T) {
	const nodes, classes = 3, 12
	const baseArch = aotBaseArch
	org := &countingOrigin{inner: corpus(t, classes)}
	c, err := cluster.StartLocal(org, nodes, aotProxyCfg, func(int) cluster.Config {
		return cluster.Config{
			Replication:    1,
			GossipInterval: -1,
			AttestKey:      attestTestKey(),
			AttestQuorum:   2,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Phase 1: the base-architecture artifacts. One origin fetch and one
	// pipeline run per class, owner-side, as always.
	base := make(map[string][]byte, classes)
	for _, class := range classNames(classes) {
		res, err := c.Nodes[0].Request(ctx, proxy.Lookup{Client: "client-0", Arch: baseArch, Class: class})
		if err != nil {
			t.Fatalf("base %s: %v", class, err)
		}
		base[class] = res.Data
	}
	if got := org.fetches.Load(); got != classes {
		t.Fatalf("base phase: origin fetches = %d, want %d", got, classes)
	}

	// Spread the base artifacts fleet-wide (a warm fleet is the steady
	// state replication and handoff converge to; doing it explicitly
	// keeps the phase-2 counters exact and timing-independent).
	var entries []*proxy.Artifact
	for _, n := range c.Nodes {
		entries = append(entries, n.Proxy().CacheSnapshot(0, func(arch, _ string) bool { return arch == baseArch })...)
	}
	for _, n := range c.Nodes {
		n.Proxy().Warm(entries)
	}

	// Phase 2: every node requests every class in the compiled
	// architecture.
	served := make(map[string][]byte, classes)
	for ni, n := range c.Nodes {
		for _, class := range classNames(classes) {
			res, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", ni), Arch: compiler.ArchDVM, Class: class})
			if err != nil {
				t.Fatalf("node %d class %s: %v", ni, class, err)
			}
			att := res.Info.Attestation
			if att == nil {
				t.Fatalf("node %d class %s: derived artifact served without attestation", ni, class)
			}
			if att.Quorum < 2 {
				t.Errorf("node %d class %s: quorum = %d, want >= 2", ni, class, att.Quorum)
			}
			if att.Digest != attest.Digest(res.Data) {
				t.Errorf("node %d class %s: attestation does not cover served bytes", ni, class)
			}
			if prev, ok := served[class]; ok && !bytes.Equal(prev, res.Data) {
				t.Errorf("class %s: nodes served different compiled bytes", class)
			}
			served[class] = res.Data
		}
	}

	// The compile-once ledger. Every class was compiled exactly once
	// fleet-wide, by deriving from the resident base artifact — so the
	// compiled architecture added ZERO origin fetches.
	if got := org.fetches.Load(); got != classes {
		t.Errorf("total origin fetches = %d, want %d (AOT derivation must not refetch)", got, classes)
	}
	if got := sumCounter(c, "compile_misses_total"); got != classes {
		t.Errorf("sum compile_misses_total = %d, want %d (one compilation per class)", got, classes)
	}
	// A peer fill is a compile hit on both sides — the requester served
	// the compiled form without compiling (PeerServed) and the owner
	// answered from its cache — so each class accrues 2*(nodes-1) hits:
	// two per remote requester, or one requester-side hit for the fill
	// that triggered the derivation plus one owner-side local hit.
	if got, want := sumCounter(c, "compile_hits_total"), int64(classes*2*(nodes-1)); got != want {
		t.Errorf("sum compile_hits_total = %d, want %d", got, want)
	}
	// Each architecture's artifacts were sealed once per class: the base
	// by a transform quorum, the derived by a compile quorum, each with
	// exactly one variant vote at quorum 2.
	if got := sumCounter(c, "attested_keys_total"); got != 2*classes {
		t.Errorf("sum attested_keys_total = %d, want %d", got, 2*classes)
	}
	if got := sumCounter(c, "attest_variants_total"); got != 2*classes {
		t.Errorf("sum attest_variants_total = %d, want %d", got, 2*classes)
	}
	for _, name := range []string{"attest_divergence_total", "attest_failures_total", "attest_degraded_total"} {
		if got := sumCounter(c, name); got != 0 {
			t.Errorf("sum %s = %d, want 0", name, got)
		}
	}

	// The served bytes really are the compiler's output over the base
	// artifact (and not, say, the base bytes relabeled).
	for _, class := range classNames(classes) {
		want, err := compiler.CompileArtifact(base[class])
		if err != nil {
			t.Fatalf("reference derivation %s: %v", class, err)
		}
		if !bytes.Equal(served[class], want) {
			t.Errorf("class %s: served compiled artifact differs from reference derivation", class)
		}
		if bytes.Equal(served[class], base[class]) {
			t.Errorf("class %s: compiled artifact identical to base artifact", class)
		}
	}
}
