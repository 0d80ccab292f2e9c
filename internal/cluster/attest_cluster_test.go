package cluster_test

// Integration tests for quorum attestation: the happy path (every
// served artifact carries a verified seal, one transform and one
// variant vote per key), the Byzantine chaos scenario (one of four
// nodes runs a corrupted pipeline; the fleet converges on the honest
// bytes, never serves the corrupt ones, and quarantines the liar
// within K divergences), and the replica-push hop rejecting payloads
// that fail re-verification.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/bytecode"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/cluster"
	"dvm/internal/netsim"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
	"dvm/internal/verifier"
)

// attestTestKey is the shared service key the attested test fleets run
// under.
func attestTestKey() []byte { return []byte("cluster-test-service-key") }

// sumCounter adds one named counter across a fleet's /healthz reports.
func sumCounter(c *cluster.LocalCluster, name string) int64 {
	var total int64
	for _, n := range c.Nodes {
		total += n.Health().Counters[name]
	}
	return total
}

// TestAttestQuorumSealsArtifacts is the attestation happy path: a
// 3-node fleet at quorum 2 serves every key from every node with a
// verified attestation, still performs exactly one origin fetch and one
// transform per key, and records zero divergences.
func TestAttestQuorumSealsArtifacts(t *testing.T) {
	const nodes, classes = 3, 12
	org := &countingOrigin{inner: corpus(t, classes)}
	c, err := cluster.StartLocal(org, nodes, verifyingProxyCfg, func(int) cluster.Config {
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
	for ni, n := range c.Nodes {
		for _, class := range classNames(classes) {
			res, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("client-%d", ni), Arch: "dvm", Class: class})
			if err != nil {
				t.Fatalf("node %d class %s: %v", ni, class, err)
			}
			att := res.Info.Attestation
			if att == nil {
				t.Fatalf("node %d class %s: served without attestation", ni, class)
			}
			if att.Quorum < 2 {
				t.Errorf("node %d class %s: quorum = %d, want >= 2", ni, class, att.Quorum)
			}
			if len(att.Voters) != att.Quorum {
				t.Errorf("node %d class %s: %d voters for quorum %d", ni, class, len(att.Voters), att.Quorum)
			}
			if att.Digest != attest.Digest(res.Data) {
				t.Errorf("node %d class %s: attestation digest does not cover the served bytes", ni, class)
			}
		}
	}
	// Cross-checking must not change the sharing property: one origin
	// fetch and one transform per distinct key, with exactly one variant
	// vote backing each (quorum 2 = owner + one variant).
	if got := org.fetches.Load(); got != classes {
		t.Errorf("origin fetches = %d, want %d", got, classes)
	}
	if got := sumCounter(c, "attested_keys_total"); got != classes {
		t.Errorf("sum attested_keys_total = %d, want %d", got, classes)
	}
	if got := sumCounter(c, "attest_variants_total"); got != classes {
		t.Errorf("sum attest_variants_total = %d, want %d", got, classes)
	}
	for _, name := range []string{"attest_divergence_total", "attest_rejects_total", "attest_degraded_total", "attest_failures_total"} {
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

// TestClusterSelfDivergenceStrikesItself: a node whose own pipeline is
// outvoted by its fleet strikes itself, and its PeerViews shows that
// strike on its own entry and on no other.
func TestClusterSelfDivergenceStrikesItself(t *testing.T) {
	const nodes, classes, byz = 3, 12, 2
	var adversary netsim.Byzantine
	c, err := cluster.StartLocal(corpus(t, classes), nodes, func(i int) proxy.Config {
		cfg := verifyingProxyCfg(i)
		if i == byz {
			cfg.Pipeline = rewrite.NewPipeline(verifier.Filter(), adversary.Filter())
		}
		return cfg
	}, func(int) cluster.Config {
		return cluster.Config{Replication: 1, GossipInterval: -1, AttestKey: attestTestKey(), AttestQuorum: 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	liar := c.Nodes[byz]
	var class string
	for _, name := range classNames(classes) {
		if liar.Ring().Owner(cluster.KeyFor("dvm", name)) == liar.Self() {
			class = name
			break
		}
	}
	if class == "" {
		t.Fatal("the ring gave the diverging node no key")
	}
	if _, err := liar.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class}); err == nil {
		t.Fatal("a node served bytes its fleet outvoted")
	}
	s := struck(liar)
	if len(s) != 1 || s[0].Member != liar.Self() || !s[0].Self || s[0].Divergences != 1 {
		t.Errorf("struck members on the diverging node = %+v, want its own entry with 1 divergence", s)
	}
}

// TestAttestByzantineChaos is the acceptance scenario: a 4-node fleet
// at quorum 2 with one Byzantine member whose pipeline deterministically
// corrupts every class. The fleet must (a) never serve a corrupted
// artifact from any honest node, (b) quarantine the Byzantine node
// within QuarantineAfter divergences, (c) win split votes by tie-break
// escalation (the initial quorum-2 round against the Byzantine variant
// is always a 1-1 tie), and (d) refuse to let the Byzantine node serve
// its own corrupt output (its flight loses the vote and fails).
func TestAttestByzantineChaos(t *testing.T) {
	const nodes, classes, quarantineAfter = 4, 90, cluster.QuarantineAfter
	const byz = 3
	raw := corpus(t, classes)
	var adversary netsim.Byzantine
	mkProxy := func(i int) proxy.Config {
		cfg := verifyingProxyCfg(i)
		if i == byz {
			cfg.Pipeline = rewrite.NewPipeline(verifier.Filter(), adversary.Filter())
		}
		return cfg
	}
	c, err := cluster.StartLocal(raw, nodes, mkProxy, func(int) cluster.Config {
		// The Byzantine node answers fills for its own keys with 500s (its
		// flights lose the vote); keep the links closed so the test proves
		// attestation, not failure detection, contains it.
		return cluster.WithLink(cluster.Config{
			Replication:    2,
			GossipInterval: -1,
			AttestKey:      attestTestKey(),
			AttestQuorum:   2,
		}, 1000, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	byzURL := c.Nodes[byz].Self()

	// The honest reference: an independent instance of the honest
	// pipeline, run outside the cluster. Byte-determinism makes its
	// output the unique answer every honest node must serve.
	honest := make(map[string][]byte, classes)
	ref := rewrite.NewPipeline(verifier.Filter())
	for _, class := range classNames(classes) {
		out, err := ref.Process(raw[class], rewrite.NewContext())
		if err != nil {
			t.Fatal(err)
		}
		honest[class] = out
	}

	// Bucket the keyspace by (owner, first variant): a key whose owner is
	// honest and whose first ring successor is the Byzantine node yields
	// exactly one divergence on that owner's ledger per transform (1-1
	// tie, escalate, honest majority, minority = Byzantine).
	ring := c.Nodes[0].Ring()
	firstVariantByz := make(map[string][]string) // owner URL -> classes
	for _, class := range classNames(classes) {
		owners := ring.Owners(cluster.KeyFor("dvm", class), nodes)
		if owners[0] != byzURL && owners[1] == byzURL {
			firstVariantByz[owners[0]] = append(firstVariantByz[owners[0]], class)
		}
	}
	var accuser *cluster.Node
	var accuserIdx int
	var probes []string
	for i, n := range c.Nodes {
		if i != byz && len(firstVariantByz[n.Self()]) >= quarantineAfter {
			accuser, accuserIdx, probes = n, i, firstVariantByz[n.Self()]
			break
		}
	}
	if accuser == nil {
		t.Fatalf("ring placement left no honest node with %d Byzantine-first keys; counts=%v", quarantineAfter, firstVariantByz)
	}

	// Phase 1 — quarantine within K divergences, one per probe key.
	ctx := context.Background()
	for i := 0; i < quarantineAfter; i++ {
		res, err := accuser.Request(ctx, proxy.Lookup{Client: "probe", Arch: "dvm", Class: probes[i]})
		if err != nil {
			t.Fatalf("probe %s: %v", probes[i], err)
		}
		if !bytes.Equal(res.Data, honest[probes[i]]) {
			t.Fatalf("probe %s: honest owner served corrupt bytes", probes[i])
		}
		if res.Info.Attestation == nil || res.Info.Attestation.Quorum < 2 {
			t.Fatalf("probe %s: missing or under-quorum attestation after tie-break", probes[i])
		}
		wantQuarantined := i+1 >= quarantineAfter
		if got := accuser.Quarantined(byzURL); got != wantQuarantined {
			t.Fatalf("after %d divergences: Quarantined(byz) = %v, want %v", i+1, got, wantQuarantined)
		}
	}
	byzDivergences := func() int {
		for _, v := range accuser.PeerViews() {
			if v.Member == byzURL {
				return v.Divergences
			}
		}
		return 0
	}
	if got := byzDivergences(); got != quarantineAfter {
		t.Errorf("accuser ledger: %d divergences, want exactly %d", got, quarantineAfter)
	}

	// Quarantine removes the Byzantine node from variant selection: more
	// transforms on the accuser send it no further attest traffic and
	// add no ledger entries.
	byzVotesBefore := c.Nodes[byz].Health().Counters["attest_variants_total"]
	if len(probes) > quarantineAfter {
		if _, err := accuser.Request(ctx, proxy.Lookup{Client: "probe", Arch: "dvm", Class: probes[quarantineAfter]}); err != nil {
			t.Fatalf("post-quarantine probe: %v", err)
		}
		if got := c.Nodes[byz].Health().Counters["attest_variants_total"]; got != byzVotesBefore {
			t.Errorf("quarantined node still receives variant requests from accuser (%d -> %d)", byzVotesBefore, got)
		}
		if got := byzDivergences(); got != quarantineAfter {
			t.Errorf("ledger moved after quarantine: %d divergences", got)
		}
	}

	// The Byzantine node cannot serve its own corrupt output: its flight
	// loses the vote (ErrLocalDivergence) for any key it must transform.
	// Checked before the sweep below — once honest nodes transform these
	// keys, their replica pushes (correctly sealed honest bytes) may warm
	// the Byzantine node's cache and mask its broken pipeline.
	var byzOwned string
	for _, class := range classNames(classes) {
		if ring.Owners(cluster.KeyFor("dvm", class), 1)[0] == byzURL {
			byzOwned = class
			break
		}
	}
	if byzOwned != "" {
		_, err := c.Nodes[byz].Request(ctx, proxy.Lookup{Client: "direct", Arch: "dvm", Class: byzOwned})
		if err == nil {
			t.Fatalf("Byzantine node served %s from its corrupt pipeline", byzOwned)
		}
		if !errors.Is(err, attest.ErrLocalDivergence) {
			t.Errorf("Byzantine self-serve error = %v, want ErrLocalDivergence", err)
		}
	}

	// Phase 2 — full sweep: every class from every honest node must be
	// the honest bytes, attested. Zero corrupted artifacts served.
	for ni, n := range c.Nodes {
		if ni == byz {
			continue
		}
		for _, class := range classNames(classes) {
			res, err := n.Request(ctx, proxy.Lookup{Client: fmt.Sprintf("sweep-%d", ni), Arch: "dvm", Class: class})
			if err != nil {
				t.Fatalf("sweep node %d class %s: %v", ni, class, err)
			}
			if !bytes.Equal(res.Data, honest[class]) {
				t.Fatalf("CORRUPT ARTIFACT SERVED: node %d class %s", ni, class)
			}
			if res.Info.Attestation == nil {
				t.Fatalf("sweep node %d class %s: served without attestation", ni, class)
			}
		}
	}

	if adversary.Corruptions.Load() == 0 {
		t.Fatal("the Byzantine filter never ran; the test proved nothing")
	}
	if got := sumCounter(c, "attest_divergence_total"); got < quarantineAfter {
		t.Errorf("sum attest_divergence_total = %d, want >= %d", got, quarantineAfter)
	}

	// The quarantine is operator-visible: the accuser's /healthz (over
	// the wire, schema-checked) reports the Byzantine member quarantined
	// with its divergence count, and the node degraded.
	resp, err := http.Get(accuser.Self() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	h, err := telemetry.ParseHealth(body)
	if err != nil {
		t.Fatalf("node %d healthz: %v", accuserIdx, err)
	}
	if h.Status != telemetry.StatusDegraded {
		t.Errorf("accuser healthz status = %q, want degraded (a quarantined peer impairs sharing)", h.Status)
	}
	found := false
	for _, m := range h.Ring {
		if m.Member == byzURL {
			found = true
			if !m.Quarantined || m.Divergences < quarantineAfter {
				t.Errorf("healthz ring entry for Byzantine member = %+v, want quarantined with >= %d divergences", m, quarantineAfter)
			}
		}
	}
	if !found {
		t.Errorf("healthz ring view is missing the Byzantine member %s", byzURL)
	}
}

// TestReplicaPushRejectsBadAttestation is the replica-ingest hop
// regression, on the batch frame: a pushed entry whose payload is
// unattested, sealed under the wrong key, or covering different bytes
// must come back as a per-entry 400 BatchError and never warm the
// receiver's cache; a correctly sealed push must land.
func TestReplicaPushRejectsBadAttestation(t *testing.T) {
	org := corpus(t, 1)
	c, err := cluster.StartLocal(org, 2, verifyingProxyCfg, func(int) cluster.Config {
		return cluster.Config{
			Replication:    1,
			GossipInterval: -1,
			AttestKey:      attestTestKey(),
			AttestQuorum:   1,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	target := c.Nodes[0]
	data := []byte("pushed-artifact-bytes")
	push := func(att *attest.Attestation) cluster.BatchResponse {
		req := cluster.BatchRequest{
			Reason: proxy.ReasonReplica,
			Member: c.Nodes[1].Self(),
			Entries: []cluster.BatchEntry{{
				Arch: "dvm", Class: "app/Pushed", Reason: proxy.ReasonReplica,
				Data: data, Att: att,
			}},
		}
		body, err := req.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(target.Self()+cluster.BatchPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch push: status %d, want 200 with per-entry errors", resp.StatusCode)
		}
		answer, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var br cluster.BatchResponse
		if err := br.UnmarshalBinary(answer); err != nil {
			t.Fatal(err)
		}
		return br
	}

	service := attest.New(attest.Config{Key: attestTestKey()})
	forged := attest.New(attest.Config{Key: []byte("not-the-service-key")})
	rejects := []struct {
		name string
		att  *attest.Attestation
	}{
		{"unattested", nil},
		{"wrong key", forged.Attest("dvm", "app/Pushed", data, 1, nil)},
		{"tampered bytes", service.Attest("dvm", "app/Pushed", []byte("other bytes"), 1, nil)},
	}
	for _, tc := range rejects {
		br := push(tc.att)
		if len(br.Errors) != 1 || br.Errors[0].Status != http.StatusBadRequest {
			t.Errorf("%s replica push: errors = %+v, want one 400 entry error", tc.name, br.Errors)
		}
	}
	if snap := target.Proxy().CacheSnapshot(1<<20, nil); len(snap) != 0 {
		t.Fatalf("rejected pushes warmed the cache: %d entries", len(snap))
	}
	if got := target.Health().Counters["attest_rejects_total"]; got != int64(len(rejects)) {
		t.Errorf("attest_rejects_total = %d, want %d", got, len(rejects))
	}
	if got := target.Health().Counters["replica_stored_total"]; got != 0 {
		t.Errorf("replica_stored_total = %d, want 0", got)
	}

	if br := push(service.Attest("dvm", "app/Pushed", data, 1, nil)); len(br.Errors) != 0 {
		t.Fatalf("valid replica push: errors = %+v, want none", br.Errors)
	}
	snap := target.Proxy().CacheSnapshot(1<<20, nil)
	if len(snap) != 1 || !bytes.Equal(snap[0].Data, data) || snap[0].Att == nil {
		t.Fatalf("valid push not stored with its attestation: %d entries", len(snap))
	}
}

// badSwitchOrigin serves, under any name, a class whose run() is three
// lookupswitch instructions that each branch into their own padding: a
// body the decoder refuses, with three equally wrong targets to name.
type badSwitchOrigin struct{}

func (badSwitchOrigin) Fetch(_ context.Context, name string) ([]byte, error) {
	b := classgen.NewClass(name, "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, "run", "()V").Return()
	cf, err := b.Build()
	if err != nil {
		return nil, err
	}
	var code []byte
	for i := 0; i < 3; i++ {
		code = append(code, byte(bytecode.Lookupswitch), 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
	}
	code = append(code, byte(bytecode.Return))
	if err := cf.SetCode(cf.FindMethod("run", "()V"), &classfile.Code{MaxStack: 1, MaxLocals: 1, Bytecode: code}); err != nil {
		return nil, err
	}
	return cf.Encode()
}

// TestRejectionAttestsIdentically: the verifier's message for a hostile
// class is embedded in the replacement class, so owner and variant must
// word it identically or an honest peer is ledgered as divergent (and
// quarantined after three). The decoder used to name whichever of several
// bad switch targets a map iteration reached first; here every node of a
// 3-node quorum-2 fleet must serve the same Rejected bytes for each such
// class with no divergence recorded.
func TestRejectionAttestsIdentically(t *testing.T) {
	const classes = 12
	c, err := cluster.StartLocal(badSwitchOrigin{}, 3, verifyingProxyCfg, func(int) cluster.Config {
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
	for _, class := range classNames(classes) {
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
			if first == nil {
				first = res.Data
			} else if !bytes.Equal(res.Data, first) {
				t.Errorf("node %d serves different replacement bytes for %s than node 0", ni, class)
			}
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

// struck lists the members n holds a divergence strike against.
func struck(n *cluster.Node) []cluster.PeerView {
	var out []cluster.PeerView
	for _, v := range n.PeerViews() {
		if v.Divergences > 0 {
			out = append(out, v)
		}
	}
	return out
}
