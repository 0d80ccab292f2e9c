package cluster

// White-box regression tests for the per-hop attestation checks: the
// peer-fill client (fetchPeer) and the handoff pull (pullFrom) must
// each discard payloads whose attestation is missing or fails
// re-verification, and only corruption evidence — a digest/seal
// mismatch, not a mere missing header — may feed the suspicion ledger.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/proxy"
)

// newAttestedTestNode builds a manual-mode node with attestation on.
// Self is a placeholder URL; the tests talk to stub peers directly.
func newAttestedTestNode(t *testing.T, key []byte) *Node {
	t.Helper()
	n, err := NewNode(proxy.MapOrigin{}, proxy.Config{CacheEnabled: true}, Config{
		Self:           "http://127.0.0.1:1",
		GossipInterval: -1,
		AttestKey:      key,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestFetchPeerRejectsBadAttestation(t *testing.T) {
	key := []byte("hop-test-service-key")
	data := []byte("transformed-artifact-bytes")
	service := attest.New(attest.Config{Key: key})

	var header atomic.Pointer[attest.Attestation] // the attestation the stub owner attaches
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFrame(w, BatchResponse{Entries: []BatchEntry{{
			Arch: "dvm", Class: "app/Hop", Reason: proxy.ReasonFill,
			Data: data, Att: header.Load(),
		}}})
	}))
	defer owner.Close()

	n := newAttestedTestNode(t, key)
	ctx := context.Background()
	lookup := proxy.Lookup{Client: "c1", Arch: "dvm", Class: "app/Hop"}

	// Missing attestation: rejected, but not ledgered — it proves a
	// config mismatch, not corruption.
	res := n.fetchPeer(ctx, owner.URL, lookup)
	if res.Art != nil || !errors.Is(res.Err, attest.ErrUnattested) {
		t.Fatalf("unattested fill = %+v, want failed/ErrUnattested", res)
	}
	if got := n.authority.Divergences(owner.URL); got != 0 {
		t.Errorf("missing attestation ledgered: %d divergences", got)
	}

	// Correctly sealed attestation over different bytes: a digest
	// mismatch is corruption evidence against the owner.
	header.Store(service.Attest("dvm", "app/Hop", []byte("tampered"), 1, nil))
	res = n.fetchPeer(ctx, owner.URL, lookup)
	if res.Art != nil || !errors.Is(res.Err, attest.ErrVerify) {
		t.Fatalf("tampered fill = %+v, want failed/ErrVerify", res)
	}
	if got := n.authority.Divergences(owner.URL); got != 1 {
		t.Errorf("corrupt payload not ledgered: %d divergences, want 1", got)
	}

	// Seal under a different key: unforgeable without the service key.
	forged := attest.New(attest.Config{Key: []byte("attacker-key")})
	header.Store(forged.Attest("dvm", "app/Hop", data, 1, nil))
	res = n.fetchPeer(ctx, owner.URL, lookup)
	if res.Art != nil || !errors.Is(res.Err, attest.ErrVerify) {
		t.Fatalf("forged-seal fill = %+v, want failed/ErrVerify", res)
	}

	if got := n.cAttestRejects.Load(); got != 3 {
		t.Errorf("attest_rejects_total = %d, want 3", got)
	}

	// The honest case still works, and the verified attestation rides
	// along with the bytes.
	header.Store(service.Attest("dvm", "app/Hop", data, 1, nil))
	res = n.fetchPeer(ctx, owner.URL, lookup)
	if res.Art == nil || !bytes.Equal(res.Art.Data, data) || res.Art.Att == nil {
		t.Fatalf("valid fill = %+v, want served with attestation", res)
	}
}

func TestPullHandoffRejectsTamperedEntries(t *testing.T) {
	key := []byte("hop-test-service-key")
	service := attest.New(attest.Config{Key: key})
	good := []byte("good-artifact")
	entries := []BatchEntry{
		{Arch: "dvm", Class: "app/Good", Data: good,
			Att: service.Attest("dvm", "app/Good", good, 1, nil)},
		{Arch: "dvm", Class: "app/Tampered", Data: []byte("evil-artifact"),
			Att: service.Attest("dvm", "app/Tampered", []byte("original"), 1, nil)},
		{Arch: "dvm", Class: "app/Naked", Data: []byte("unattested-artifact")},
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFrame(w, BatchResponse{Entries: entries})
	}))
	defer peer.Close()

	n := newAttestedTestNode(t, key)
	// Only the verifiable entry is accepted.
	if got := n.pullFrom(context.Background(), peer.URL); got != 1 {
		t.Fatalf("pullFrom accepted %d entries, want 1", got)
	}
	snap := n.local.CacheSnapshot(1<<20, nil)
	if len(snap) != 1 || snap[0].Class != "app/Good" || !bytes.Equal(snap[0].Data, good) {
		t.Fatalf("cache after handoff = %+v, want only app/Good", snap)
	}
	if snap[0].Att == nil {
		t.Error("handed-off entry lost its attestation")
	}
	if got := n.cHandoffKeys.Load(); got != 1 {
		t.Errorf("handoff_keys_total = %d, want 1", got)
	}
	if got := n.cAttestRejects.Load(); got != 2 {
		t.Errorf("attest_rejects_total = %d, want 2 (tampered + unattested)", got)
	}
	// The sender is accountable for what it hands off: exactly the one
	// tampered entry is on its ledger. The unattested one proves only a
	// config mismatch and accuses nobody.
	if got := n.authority.Divergences(peer.URL); got != 1 {
		t.Errorf("sender has %d divergences, want 1 (the tampered entry only)", got)
	}
	if sus := n.Suspicions(); len(sus) != 1 || sus[0].Peer != peer.URL {
		t.Errorf("ledger = %+v, want only the sender", sus)
	}
}
