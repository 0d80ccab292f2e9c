package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/workload"
)

// TestNearFullPoolRejectedFleetWide: a valid class whose constant pool
// has no room for what the verification service adds used to panic the
// flight goroutine — one such class took down its owner and then, through
// the quorum round, the variant asked to re-run it. It must instead be a
// rejection like any other: every node of a 3-node quorum-2 fleet serves
// the same sealed replacement bytes, which requires owner and variant to
// word the overflow identically, and nobody is ledgered as divergent.
func TestNearFullPoolRejectedFleetWide(t *testing.T) {
	app, err := workload.Generate(workload.Benchmarks()[0])
	if err != nil {
		t.Fatal(err)
	}
	org := proxy.MapOrigin{}
	for class, count := range map[string]int{"jlex/C001": 65530, "jlex/C002": 65534, "jlex/C003": 65535} {
		if org[class], err = workload.PadPool(app.Classes[class], count); err != nil {
			t.Fatal(err)
		}
	}
	org["jlex/C004"] = app.Classes["jlex/C004"] // an ordinary class, for afterwards
	c, err := cluster.StartLocal(org, 3, verifyingProxyCfg, func(int) cluster.Config {
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
	for _, class := range []string{"jlex/C001", "jlex/C002", "jlex/C003"} {
		var first []byte
		for ni, n := range c.Nodes {
			res, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", ni), Arch: "dvm", Class: class})
			if err != nil {
				t.Fatalf("node %d class %s: %v", ni, class, err)
			}
			if !res.Info.Rejected || res.Info.Attestation == nil {
				t.Fatalf("node %d class %s: rejected=%v attestation=%v, want a sealed replacement",
					ni, class, res.Info.Rejected, res.Info.Attestation)
			}
			if !bytes.Contains(res.Data, []byte("constant pool overflow")) {
				t.Errorf("node %d class %s: the replacement does not say why", ni, class)
			}
			if first == nil {
				first = res.Data
			} else if !bytes.Equal(res.Data, first) {
				t.Errorf("node %d serves different replacement bytes for %s than node 0", ni, class)
			}
		}
	}
	// Every node is still there and still serves what it can.
	for ni, n := range c.Nodes {
		res, err := n.Request(ctx, proxy.Lookup{Client: "after", Arch: "dvm", Class: "jlex/C004"})
		if err != nil || res.Info.Rejected {
			t.Errorf("node %d after the rejections: rejected=%v err=%v", ni, res.Info.Rejected, err)
		}
	}
	for _, name := range []string{"attest_divergence_total", "attest_rejects_total", "attest_failures_total"} {
		if got := sumCounter(c, name); got != 0 {
			t.Errorf("sum %s = %d, want 0", name, got)
		}
	}
	for i, n := range c.Nodes {
		if s := struck(n); len(s) != 0 {
			t.Errorf("node %d suspicion ledger = %+v, want empty", i, s)
		}
	}
}
