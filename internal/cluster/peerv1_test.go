package cluster

// White-box tests for the versioned peer protocol: the /peer/v1/batch
// envelope (fill + prefetch piggyback, per-entry attested ingest,
// heat-ordered handoff) — and the absence of the removed pre-v1
// single-key routes.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/classgen"
	"dvm/internal/proxy"
)

// newBatchTestNode builds a manual-mode single-member node over origin.
func newBatchTestNode(t *testing.T, origin proxy.Origin, cfg Config) *Node {
	t.Helper()
	if cfg.Self == "" {
		cfg.Self = "http://127.0.0.1:1"
	}
	cfg.GossipInterval = -1
	n, err := NewNode(origin, proxy.Config{CacheEnabled: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func walkOrigin(t *testing.T) proxy.MapOrigin {
	t.Helper()
	out := make(proxy.MapOrigin, 3)
	for _, name := range []string{"app/A", "app/B", "app/C"} {
		b := classgen.NewClass(name, "java/lang/Object")
		b.DefaultInit()
		data, err := b.BuildBytes()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// resident returns the transformed bytes the node holds for class.
func resident(t *testing.T, n *Node, class string) []byte {
	t.Helper()
	art := n.Proxy().Peek("dvm", class)
	if art == nil {
		t.Fatalf("%s not resident", class)
	}
	return art.Data
}

// trainAndWarm teaches the owner the walk A->B->C and makes B and C
// resident in its cache (Peek-able for the piggyback).
func trainAndWarm(t *testing.T, owner *Node) {
	t.Helper()
	owner.FeedProfile("dvm", []string{"app/A", "app/B", "app/C"})
	ctx := context.Background()
	for _, class := range []string{"app/B", "app/C"} {
		if _, err := owner.Request(ctx, proxy.Lookup{Client: "warmer", Arch: "dvm", Class: class}); err != nil {
			t.Fatalf("warm %s: %v", class, err)
		}
	}
}

func postBatch(t *testing.T, url string, req BatchRequest) (*http.Response, BatchResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+batchPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("bad batch response: %v", err)
		}
	}
	return resp, br
}

func TestBatchFillPiggybacksPredictedSuccessors(t *testing.T) {
	owner := newBatchTestNode(t, walkOrigin(t), Config{})
	trainAndWarm(t, owner)
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	resp, br := postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonFill, Member: "http://requester:1", Client: "c7",
		Arch: "dvm", Classes: []string{"app/A"},
	})
	if resp.StatusCode != http.StatusOK || len(br.Errors) != 0 {
		t.Fatalf("batch fill: status=%d errors=%+v", resp.StatusCode, br.Errors)
	}
	var fill, pre []BatchEntry
	for _, e := range br.Entries {
		switch e.Reason {
		case proxy.ReasonFill:
			fill = append(fill, e)
		case proxy.ReasonPrefetch:
			pre = append(pre, e)
		}
	}
	if len(fill) != 1 || fill[0].Class != "app/A" || fill[0].Rejected ||
		!bytes.Equal(fill[0].Data, resident(t, owner, "app/A")) {
		t.Fatalf("fill entries = %+v", fill)
	}
	// A's only observed successor is B; C follows B, not A.
	if len(pre) != 1 || pre[0].Class != "app/B" || !bytes.Equal(pre[0].Data, resident(t, owner, "app/B")) {
		t.Fatalf("prefetch entries = %+v, want exactly app/B", pre)
	}
	if got := owner.PrefetchPushed(); got != 1 {
		t.Errorf("prefetch_pushed_total = %d, want 1", got)
	}

	// NoPrefetch declines the piggyback.
	_, br = postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonFill, Member: "http://requester:1", Client: "c8",
		Arch: "dvm", Classes: []string{"app/A"}, NoPrefetch: true,
	})
	for _, e := range br.Entries {
		if e.Reason == proxy.ReasonPrefetch {
			t.Fatalf("NoPrefetch response still piggybacked %s", e.Class)
		}
	}

	// A byte budget below B's size suppresses the push (budget respected,
	// not overflowed).
	_, br = postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonFill, Member: "http://requester:1", Client: "c9",
		Arch: "dvm", Classes: []string{"app/A"}, MaxBytes: 3,
	})
	for _, e := range br.Entries {
		if e.Reason == proxy.ReasonPrefetch {
			t.Fatalf("piggyback exceeded MaxBytes: pushed %d-byte %s", len(e.Data), e.Class)
		}
	}
}

func TestFetchPeerIngestsPiggybackedPrefetch(t *testing.T) {
	owner := newBatchTestNode(t, walkOrigin(t), Config{})
	trainAndWarm(t, owner)
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()

	requester := newBatchTestNode(t, proxy.MapOrigin{}, Config{Self: "http://127.0.0.1:2"})
	res := requester.fetchPeer(context.Background(), srv.URL,
		proxy.Lookup{Client: "c1", Arch: "dvm", Class: "app/A"})
	if res.Art == nil || !bytes.Equal(res.Art.Data, resident(t, owner, "app/A")) {
		t.Fatalf("fetchPeer = %+v", res)
	}
	if got := requester.PrefetchReceived(); got != 1 {
		t.Errorf("prefetch_received_total = %d, want 1", got)
	}
	// The predicted successor is now resident before anyone asks for it.
	if art := requester.Proxy().Peek("dvm", "app/B"); art == nil || !bytes.Equal(art.Data, resident(t, owner, "app/B")) {
		t.Errorf("piggybacked app/B not resident: %+v", art)
	}
	// And the requested class is NOT marked speculative.
	if inserted := requester.Proxy().PrefetchStats().Inserted; inserted != 1 {
		t.Errorf("prefetch_inserted_total = %d, want 1 (only app/B)", inserted)
	}

	// A requester with prediction disabled declines the piggyback.
	noPre := newBatchTestNode(t, proxy.MapOrigin{}, Config{Self: "http://127.0.0.1:3", PrefetchK: -1})
	res = noPre.fetchPeer(context.Background(), srv.URL,
		proxy.Lookup{Client: "c2", Arch: "dvm", Class: "app/A"})
	if res.Art == nil {
		t.Fatalf("fetchPeer = %+v", res)
	}
	if got := noPre.PrefetchReceived(); got != 0 {
		t.Errorf("prefetch-disabled requester accepted %d piggybacked entries", got)
	}
}

// TestBatchIngestRejectsUnattestedPerEntry is the protocol's trust
// acceptance check: with attestation on, every entry of a mixed push is
// verified on its own — one bad entry cannot ride in on a good batch,
// and zero unattested entries are accepted, whatever their reason.
func TestBatchIngestRejectsUnattestedPerEntry(t *testing.T) {
	key := []byte("batch-test-service-key")
	service := attest.New(attest.Config{Key: key})
	good := []byte("good-artifact")
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{AttestKey: key})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	resp, br := postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonReplica, Member: "http://pusher:1",
		Entries: []BatchEntry{
			{Arch: "dvm", Class: "app/Good", Reason: proxy.ReasonReplica, Data: good,
				Att: service.Attest("dvm", "app/Good", good, 1, nil).Encode()},
			{Arch: "dvm", Class: "app/Tampered", Reason: proxy.ReasonReplica, Data: []byte("evil"),
				Att: service.Attest("dvm", "app/Tampered", []byte("original"), 1, nil).Encode()},
			{Arch: "dvm", Class: "app/Naked", Reason: proxy.ReasonPrefetch, Data: []byte("unattested")},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest status = %d", resp.StatusCode)
	}
	if len(br.Errors) != 2 {
		t.Fatalf("errors = %+v, want tampered + naked rejected", br.Errors)
	}
	for _, be := range br.Errors {
		if be.Class == "app/Good" {
			t.Errorf("verified entry rejected: %+v", be)
		}
		if be.Status != http.StatusBadRequest {
			t.Errorf("rejection status = %d, want 400", be.Status)
		}
	}
	snap := n.Proxy().CacheSnapshot(0, nil)
	if len(snap) != 1 || snap[0].Class != "app/Good" {
		t.Fatalf("cache after mixed push = %+v, want only app/Good", snap)
	}
	if got := n.cAttestRejects.Load(); got != 2 {
		t.Errorf("attest_rejects_total = %d, want 2", got)
	}
	if got := n.ReplicasStored(); got != 1 {
		t.Errorf("replica_stored_total = %d, want 1", got)
	}
}

func TestBatchHandoffServesHeatOrderedEntries(t *testing.T) {
	n := newBatchTestNode(t, walkOrigin(t), Config{})
	ctx := context.Background()
	// Resident in request order A, B, C => MRU order C, B, A.
	for _, class := range []string{"app/A", "app/B", "app/C"} {
		if _, err := n.Request(ctx, proxy.Lookup{Client: "w", Arch: "dvm", Class: class}); err != nil {
			t.Fatal(err)
		}
	}
	// Profile heat says A is the workload's hottest key.
	for i := 0; i < 5; i++ {
		n.FeedProfile("dvm", []string{"app/A"})
	}
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	// The single-member ring owns everything, so Member=self matches all.
	resp, br := postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonHandoff, Member: n.cfg.Self,
	})
	if resp.StatusCode != http.StatusOK || len(br.Entries) != 3 {
		t.Fatalf("handoff: status=%d entries=%d", resp.StatusCode, len(br.Entries))
	}
	if br.Entries[0].Class != "app/A" {
		t.Errorf("hottest-profile key not first: got %s", br.Entries[0].Class)
	}
	for _, e := range br.Entries {
		if e.Reason != proxy.ReasonHandoff {
			t.Errorf("handoff entry %s has reason %q", e.Class, e.Reason)
		}
	}
}

func TestBatchRejectsMalformedRequests(t *testing.T) {
	n := newBatchTestNode(t, walkOrigin(t), Config{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	// No entries, no classes, no member: nothing to dispatch on.
	resp, _ := postBatch(t, srv.URL, BatchRequest{Reason: proxy.ReasonFill})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request status = %d, want 400", resp.StatusCode)
	}
	// Path traversal in a class name fails that class, not the envelope.
	resp, br := postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonFill, Member: "http://r:1", Client: "c",
		Arch: "dvm", Classes: []string{"../etc/passwd", "app/A"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed fill status = %d", resp.StatusCode)
	}
	if len(br.Errors) != 1 || br.Errors[0].Status != http.StatusBadRequest {
		t.Errorf("traversal class errors = %+v", br.Errors)
	}
	served := false
	for _, e := range br.Entries {
		if e.Reason == proxy.ReasonFill && e.Class == "app/A" {
			served = true
		}
	}
	if !served {
		t.Error("well-formed class not served alongside a rejected one")
	}
	// GET is not part of the v1 protocol.
	getResp, err := http.Get(srv.URL + batchPath)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s = %d, want 405", batchPath, getResp.StatusCode)
	}
}

// TestPreV1PeerRoutesRemoved pins the other side of the deprecation
// contract: the one-release alias window is over, so the pre-v1
// single-key routes are unrouted (404) and the versioned protocol is
// the only peer surface. The paths are spelled as literals on purpose —
// the constants are gone with the handlers.
func TestPreV1PeerRoutesRemoved(t *testing.T) {
	n := newBatchTestNode(t, walkOrigin(t), Config{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	gone := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/peer/class/app/A.class", ""},
		{http.MethodPost, "/peer/replica/app/Pushed.class", "replica-bytes"},
		{http.MethodPost, "/peer/handoff", `{"member":"http://127.0.0.1:1"}`},
		{http.MethodPost, "/gossip", "{}"},
		{http.MethodPost, "/peer/attest/app/A.class", "raw-bytes"},
	}
	for _, tc := range gone {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		req.Header.Set("X-DVM-Arch", "dvm")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404 (pre-v1 route must be unrouted)", tc.method, tc.path, resp.StatusCode)
		}
	}

	// The versioned protocol still answers on the same mux.
	resp, br := postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonFill, Member: "http://127.0.0.1:1", Arch: "dvm", Classes: []string{"app/A"},
	})
	if resp.StatusCode != http.StatusOK || len(br.Entries) != 1 {
		t.Fatalf("v1 batch fill: status=%d entries=%d", resp.StatusCode, len(br.Entries))
	}
	if !bytes.Equal(br.Entries[0].Data, resident(t, n, "app/A")) {
		t.Error("v1 batch fill served different bytes than the resident artifact")
	}
}

// TestBatchFillDrainingShed pins the middleware behavior every v1
// request shares: a draining node answers 429 + X-DVM-Draining.
func TestBatchFillDrainingShed(t *testing.T) {
	n := newBatchTestNode(t, walkOrigin(t), Config{})
	n.mship.DrainSelf()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	resp, _ := postBatch(t, srv.URL, BatchRequest{
		Reason: proxy.ReasonFill, Member: "http://r:1", Arch: "dvm", Classes: []string{"app/A"},
	})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(drainingHeader) != "1" {
		t.Errorf("draining batch: status=%d draining=%q", resp.StatusCode, resp.Header.Get(drainingHeader))
	}
}

// The owner's predictor learns across requester nodes without mixing
// their client sequences: same client id on two members must not form a
// false edge.
func TestServeBatchFillNamespacesClients(t *testing.T) {
	owner := newBatchTestNode(t, walkOrigin(t), Config{})
	srv := httptest.NewServer(owner.Handler())
	defer srv.Close()
	// Member 1's "c" requests A; member 2's "c" requests C. Without
	// namespacing this would look like one client walking A -> C.
	for member, class := range map[string]string{"http://m1:1": "app/A", "http://m2:1": "app/C"} {
		if _, br := postBatch(t, srv.URL, BatchRequest{
			Reason: proxy.ReasonFill, Member: member, Client: "c",
			Arch: "dvm", Classes: []string{class},
		}); len(br.Errors) != 0 {
			t.Fatalf("fill errors: %+v", br.Errors)
		}
	}
	if preds := owner.predictor.Predict("dvm", "app/A"); len(preds) != 0 {
		t.Errorf("cross-member client ids formed a false edge: %+v", preds)
	}
}

func TestPushEntriesReportsAcceptedCount(t *testing.T) {
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	pusher := newBatchTestNode(t, proxy.MapOrigin{}, Config{Self: "http://127.0.0.1:4"})
	entries := []BatchEntry{
		{Arch: "dvm", Class: "app/X", Reason: proxy.ReasonReplica, Data: []byte("x")},
		{Arch: "dvm", Class: "", Reason: proxy.ReasonReplica, Data: []byte("bad")}, // rejected
	}
	if got := pusher.pushEntries(context.Background(), srv.URL, entries); got != 1 {
		t.Errorf("pushEntries = %d accepted, want 1", got)
	}
	if n.Proxy().Peek("dvm", "app/X") == nil {
		t.Error("accepted entry not stored")
	}
}
