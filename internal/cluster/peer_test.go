package cluster

// White-box tests for the versioned peer protocol: the /peer/v2/batch
// frame exchange (fill + prefetch piggyback, per-entry attested ingest,
// heat-ordered handoff), what a malformed or old-version frame gets, and
// the absence of the removed pre-v1 routes and the v1 JSON envelope.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dvm/internal/attest"
	"dvm/internal/classgen"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
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

// postBatch posts req as one frame and decodes the answering frame.
func postBatch(t *testing.T, url string, req BatchRequest) (*http.Response, BatchResponse) {
	t.Helper()
	return postFrame(t, url, req.encode().bytes())
}

// postFrame posts raw body bytes to the batch route.
func postFrame(t *testing.T, url string, body []byte) (*http.Response, BatchResponse) {
	t.Helper()
	resp, err := http.Post(url+BatchPath, batchContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := br.UnmarshalBinary(answer); err != nil {
			t.Fatalf("bad batch response: %v", err)
		}
	}
	return resp, br
}

// serveFrame answers a stub peer's request with br, the way handleBatch
// does: Content-Length, then the frame.
func serveFrame(w http.ResponseWriter, br BatchResponse) {
	frame := br.encode()
	w.Header().Set("Content-Length", strconv.Itoa(frame.size()))
	_ = frame.writeTo(w)
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
				Att: service.Attest("dvm", "app/Good", good, 1, nil)},
			{Arch: "dvm", Class: "app/Tampered", Reason: proxy.ReasonReplica, Data: []byte("evil"),
				Att: service.Attest("dvm", "app/Tampered", []byte("original"), 1, nil)},
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
	// GET is not part of the protocol.
	getResp, err := http.Get(srv.URL + BatchPath)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s = %d, want 405", BatchPath, getResp.StatusCode)
	}

	// Frame-level refusals: each is a clean 4xx for the whole request.
	push := BatchRequest{Reason: proxy.ReasonReplica, Member: "http://r:1", Entries: []BatchEntry{
		{Arch: "dvm", Class: "app/Pushed", Reason: proxy.ReasonReplica, Data: []byte("pushed-bytes")}}}
	good := push.encode().bytes()
	wrongMagic := append([]byte("DVMX"), good[4:]...)
	wrongVersion := bytes.Clone(good)
	wrongVersion[4] = 1
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"wrong magic", wrongMagic, http.StatusBadRequest},
		{"wrong version", wrongVersion, http.StatusBadRequest},
		{"trailing bytes after the last field", append(bytes.Clone(good), 0), http.StatusBadRequest},
		{"frame cut inside the payload", good[:len(good)-3], http.StatusBadRequest},
		{"empty body", nil, http.StatusBadRequest},
	} {
		if resp, _ := postFrame(t, srv.URL, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// The same refusals on the vote route, whose whole frame is bounded
	// like one class: no Content-Length (a chunked request) and the frame
	// is never read; a declared length over the bound is refused before a
	// byte of body is read or allocated for; one the body does not honour
	// is a 400.
	vote := BatchRequest{Reason: reasonVote, Member: "http://r:1", Arch: "dvm", Classes: []string{"app/A"},
		Vote: Proposal{Payload: walkOrigin(t)["app/A"]}}
	for _, route := range []struct {
		path  string
		frame []byte
		bound int
	}{{BatchPath, good, maxBatchBytes}, {VotePath, vote.encode().bytes(), maxPeerClassBytes}} {
		chunked, _ := http.NewRequest(http.MethodPost, srv.URL+route.path, io.MultiReader(bytes.NewReader(route.frame)))
		resp, err = http.DefaultClient.Do(chunked)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusLengthRequired {
			t.Errorf("%s, missing Content-Length: status = %d, want 411", route.path, resp.StatusCode)
		}
		for _, tc := range []struct {
			name     string
			declared int
			want     string
		}{
			{"Content-Length over the bound", route.bound + 1, "413"},
			{"body shorter than declared", len(route.frame) + 10, "400"},
		} {
			conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", route.path, tc.declared, route.frame)
			_ = conn.(*net.TCPConn).CloseWrite()
			status, _ := bufio.NewReader(conn).ReadString('\n')
			conn.Close()
			if !strings.Contains(status, " "+tc.want+" ") {
				t.Errorf("%s, %s: status line %q, want %s", route.path, tc.name, strings.TrimSpace(status), tc.want)
			}
		}
	}
	// The well-formed vote is answered: the refusals above are the bounds'.
	resp, err = http.Post(srv.URL+VotePath, batchContentType, bytes.NewReader(vote.encode().bytes()))
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ballot BatchResponse
	if err := ballot.UnmarshalBinary(answer); resp.StatusCode != http.StatusOK || err != nil || ballot.Vote == nil {
		t.Errorf("well-formed vote: status %d, %v, ballot %v; want 200 and a ballot", resp.StatusCode, err, ballot.Vote)
	}
	if n.Proxy().Peek("dvm", "app/Pushed") != nil {
		t.Error("a refused frame's entry reached the cache")
	}
}

// TestPreV1PeerRoutesRemoved pins the other side of the deprecation
// contract: the one-release alias window is over, so the pre-v1
// single-key routes, the v1 JSON batch and the v1 JSON vote are unrouted
// (404) and the versioned protocol is the only peer surface. The paths are spelled as literals on purpose —
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
		// The JSON vote: replaced by the frame on /peer/v2/vote.
		{http.MethodPost, "/peer/v1/attest/app/A.class", "raw-bytes"},
		// The v1 JSON envelope: replaced by the v2 frame, not kept beside it.
		{http.MethodPost, "/peer/v1/batch", `{"reason":"fill","member":"http://127.0.0.1:1","arch":"dvm","classes":["app/A"]}`},
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
		t.Fatalf("batch fill: status=%d entries=%d", resp.StatusCode, len(br.Entries))
	}
	if !bytes.Equal(br.Entries[0].Data, resident(t, n, "app/A")) {
		t.Error("batch fill served different bytes than the resident artifact")
	}
}

// TestV1EnvelopeOnV2RouteRefused is the new-node half of a mixed-version
// fleet: an old peer's JSON envelope posted at the v2 route is one clean
// 400 — nothing ingested, no counter moved, no partial decode.
func TestV1EnvelopeOnV2RouteRefused(t *testing.T) {
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	before := n.Health().Counters
	v1 := `{"reason":"replica","member":"http://old:1","entries":[{"arch":"dvm","class":"app/Old","reason":"replica","data":"b2xkLWJ5dGVz"}]}`
	resp, _ := postFrame(t, srv.URL, []byte(v1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("v1 JSON body on %s: status = %d, want 400", BatchPath, resp.StatusCode)
	}
	if len(n.Proxy().CacheSnapshot(0, nil)) != 0 {
		t.Error("v1 envelope was ingested by the v2 route")
	}
	if after := n.Health().Counters; !reflect.DeepEqual(before, after) {
		t.Errorf("a refused frame moved counters:\nbefore %v\nafter  %v", before, after)
	}
}

// anyClassOrigin serves a fresh class under any name, so a test can draw
// names until the ring places one where it needs it.
type anyClassOrigin struct{}

func (anyClassOrigin) Fetch(_ context.Context, name string) ([]byte, error) {
	b := classgen.NewClass(name, "java/lang/Object")
	b.DefaultInit()
	return b.BuildBytes()
}

// TestOldVersionOwnerIsRefusedPerHop is the other half: the key's owner
// is an old-version peer that only routes /peer/v1/batch, so the v2 post
// is a 404. That is one failed hop — a peer error, a breaker failure —
// and the load is served from this node's own origin with exactly the
// bytes a standalone node produces: refusal, never corruption.
func TestOldVersionOwnerIsRefusedPerHop(t *testing.T) {
	var v2Posts atomic.Int64
	oldMux := http.NewServeMux()
	oldMux.HandleFunc("/peer/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"entries":[]}`)
	})
	oldMux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == BatchPath {
			v2Posts.Add(1)
		}
		http.NotFound(w, r)
	})
	old := httptest.NewServer(oldMux)
	defer old.Close()

	n := newBatchTestNode(t, anyClassOrigin{}, Config{
		Peers: []string{old.URL}, Replication: 1, BreakerThreshold: 1, BreakerCooldown: time.Minute,
	})
	var class string
	for i := 0; class == ""; i++ {
		if c := fmt.Sprintf("app/Mixed%03d", i); n.currentRing().Owner(KeyFor("dvm", c)) == old.URL {
			class = c
		}
	}
	res, err := n.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class})
	if err != nil {
		t.Fatalf("load behind an old-version owner failed: %v", err)
	}
	ref := newBatchTestNode(t, anyClassOrigin{}, Config{Self: "http://127.0.0.1:9"})
	want, err := ref.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: class})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, want.Data) {
		t.Error("bytes served around the refused hop differ from a standalone node's")
	}
	if res.Info.Peer != "" {
		t.Errorf("load attributed to peer %q, want local origin", res.Info.Peer)
	}
	if got := v2Posts.Load(); got != 1 {
		t.Errorf("old peer saw %d v2 posts, want 1", got)
	}
	if got := n.PeerErrors(); got != 1 {
		t.Errorf("peer_errors_total = %d, want 1", got)
	}
	if st := n.breaker(old.URL).State(); st != resilience.Open {
		t.Errorf("link to the old-version peer is %v, want open (threshold 1)", st)
	}
}

// TestIngestedArtifactsDoNotPinTheirFrame pins the alias rule: entries
// of a multi-entry frame are copied out one by one, so what reaches the
// store holds its own bytes and nothing of its neighbours; a lone entry
// keeps the read buffer, with its capacity clipped to the class.
func TestIngestedArtifactsDoNotPinTheirFrame(t *testing.T) {
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	payload := func(size int) []byte { return bytes.Repeat([]byte{0xCA}, size) }
	multi := []BatchEntry{
		{Arch: "dvm", Class: "app/M0", Reason: proxy.ReasonReplica, Data: payload(100)},
		{Arch: "dvm", Class: "app/M1", Reason: proxy.ReasonHandoff, Data: payload(5000)},
		{Arch: "dvm", Class: "app/M2", Reason: proxy.ReasonReplica, Data: payload(70000)},
	}
	if _, br := postBatch(t, srv.URL, BatchRequest{Reason: proxy.ReasonReplica, Member: "http://r:1", Entries: multi}); len(br.Errors) != 0 {
		t.Fatalf("multi-entry push: %+v", br.Errors)
	}
	var prevEnd uintptr
	for _, e := range multi {
		got := resident(t, n, e.Class)
		if !bytes.Equal(got, e.Data) {
			t.Fatalf("%s: stored bytes differ", e.Class)
		}
		// One allocator size class is at most 1/8 above the request
		// (plus the 16-byte granule for the smallest).
		if slack := cap(got) - len(got); slack > len(got)/8+16 {
			t.Errorf("%s: stored artifact has cap %d for %d bytes: it pins more than itself", e.Class, cap(got), len(got))
		}
		// Views of one frame sit a few header bytes apart; copies in
		// three different size classes cannot.
		start := uintptr(unsafe.Pointer(unsafe.SliceData(got)))
		if prevEnd != 0 && start >= prevEnd && start-prevEnd < 256 {
			t.Errorf("%s: stored artifact starts %d bytes after its neighbour: both alias the frame", e.Class, start-prevEnd)
		}
		prevEnd = start + uintptr(len(got))
	}
	single := BatchEntry{Arch: "dvm", Class: "app/S", Reason: proxy.ReasonReplica, Data: payload(5000)}
	if _, br := postBatch(t, srv.URL, BatchRequest{Reason: proxy.ReasonReplica, Member: "http://r:1", Entries: []BatchEntry{single}}); len(br.Errors) != 0 {
		t.Fatalf("single-entry push: %+v", br.Errors)
	}
	if got := resident(t, n, "app/S"); !bytes.Equal(got, single.Data) || cap(got) != len(got) {
		t.Errorf("single-entry artifact: len %d cap %d, want the class exactly (3-index alias of the frame)", len(got), cap(got))
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
