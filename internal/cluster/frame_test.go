package cluster

// The frame codec's own tests: round trips, the allocation bound on
// hostile input, and FuzzPeerFrame, whose seed corpus is real workload
// classes wrapped the ways the protocol moves them, votes included, cut
// short at every metadata byte.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"dvm/internal/attest"
	"dvm/internal/proxy"
	"dvm/internal/workload"
)

// frameSeedClasses returns a few generated workload classes, smallest
// name first.
func frameSeedClasses(tb testing.TB, n int) (names []string, classes map[string][]byte) {
	tb.Helper()
	spec := workload.Benchmarks()[4] // Cassowary: 34 classes, 85 KB
	app, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	for name := range app.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names[:n], app.Classes
}

// seedFrames builds one frame per way a class moves: a fill request and
// its attested response with an old owner's piggybacked entry and a
// per-item error, a replica push, a handoff pull request, a drain-side
// handoff push, and the vote — a request with its proposal, one without
// (a tie-break round), and the ballot that answers it.
func seedFrames(tb testing.TB) (requests, responses []*frameEnc) {
	tb.Helper()
	names, classes := frameSeedClasses(tb, 3)
	service := attest.New(attest.Config{Key: []byte("frame-seed-key")})
	entry := func(i int, reason string) BatchEntry {
		data := classes[names[i]]
		return BatchEntry{Arch: "dvm", Class: names[i], Reason: reason, Data: data,
			Att: service.Attest("dvm", names[i], data, 2, []string{"http://a:1", "http://b:1"})}
	}
	fill := BatchRequest{Reason: proxy.ReasonFill, Member: "http://a:1", Client: "c1", Arch: "dvm",
		Classes: []string{names[0], "app/Missing"}, MaxBytes: 256 << 10}
	replica := BatchRequest{Reason: proxy.ReasonReplica, Member: "http://a:1",
		Entries: []BatchEntry{entry(0, proxy.ReasonReplica)}}
	pull := BatchRequest{Reason: proxy.ReasonHandoff, Member: "http://b:1", MaxBytes: handoffMaxBytes, NoPrefetch: true}
	naked := entry(2, proxy.ReasonHandoff)
	naked.Att, naked.Rejected, naked.Stale = nil, true, true
	drain := BatchRequest{Reason: proxy.ReasonHandoff, Member: "http://a:1",
		Entries: []BatchEntry{entry(1, proxy.ReasonHandoff), naked}}
	filled := BatchResponse{
		Entries: []BatchEntry{entry(0, proxy.ReasonFill), entry(1, oldPrefetchReason)},
		Errors:  []BatchError{{Arch: "dvm", Class: "app/Missing", Status: 404, Error: "proxy: class not found"}},
	}
	lone := BatchResponse{Entries: []BatchEntry{entry(0, proxy.ReasonFill)}}
	refused := BatchResponse{Errors: []BatchError{{Arch: "dvm", Class: names[0], Status: 400, Error: "failed attestation"}}}
	commit := sha256.Sum256([]byte(attest.Digest(classes[names[0]]).String()))
	vote := BatchRequest{Reason: reasonVote, Member: "http://a:1", Arch: "dvm", Classes: names[:1],
		Vote: Proposal{Mode: oldCompileMode, Payload: classes[names[0]], Commit: commit[:], Voters: []string{"http://a:1", "http://b:1"},
			Seal: attest.New(attest.Config{Key: []byte("frame-seed-key")}).SealProposal("dvm", names[0], oldCompileMode, commit[:], []string{"http://a:1", "http://b:1"})}}
	tieBreak := BatchRequest{Reason: reasonVote, Member: "http://a:1", Arch: "dvm", Classes: names[1:2],
		Vote: Proposal{Payload: classes[names[1]]}}
	ballot := BatchResponse{Vote: &Ballot{Digest: attest.Digest(classes[names[0]]), Kept: true}}
	for _, r := range []*BatchRequest{&fill, &replica, &pull, &drain, &vote, &tieBreak} {
		requests = append(requests, r.encode())
	}
	for _, r := range []*BatchResponse{&filled, &lone, &refused, {}, &ballot} {
		responses = append(responses, r.encode())
	}
	return requests, responses
}

func TestFrameRoundTrip(t *testing.T) {
	requests, responses := seedFrames(t)
	for i, f := range requests {
		var got, again BatchRequest
		if err := got.UnmarshalBinary(f.bytes()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := again.UnmarshalBinary(got.encode().bytes()); err != nil || !reflect.DeepEqual(got, again) {
			t.Errorf("request %d does not survive a second trip (%v)", i, err)
		}
		if !bytes.Equal(got.encode().bytes(), f.bytes()) {
			t.Errorf("request %d re-encodes to different bytes", i)
		}
	}
	for i, f := range responses {
		var got BatchResponse
		if err := got.UnmarshalBinary(f.bytes()); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !bytes.Equal(got.encode().bytes(), f.bytes()) {
			t.Errorf("response %d re-encodes to different bytes", i)
		}
		// The server's interleaved write and the flattened form agree,
		// and size is what it says.
		var w bytes.Buffer
		if err := f.writeTo(&w); err != nil || !bytes.Equal(w.Bytes(), f.bytes()) || f.size() != w.Len() {
			t.Errorf("response %d: writeTo wrote %d bytes, size() = %d, flattened = %d", i, w.Len(), f.size(), len(f.bytes()))
		}
	}
	// What the trust gate relies on: the attestation arrives equal to the
	// one sent, under the entry's key.
	var filled BatchResponse
	if err := filled.UnmarshalBinary(responses[0].bytes()); err != nil {
		t.Fatal(err)
	}
	service := attest.New(attest.Config{Key: []byte("frame-seed-key")})
	for _, e := range filled.Entries {
		if err := service.Verify(e.Att, e.Arch, e.Class, e.Data); err != nil {
			t.Errorf("%s: seal does not verify after the trip: %v", e.Class, err)
		}
	}
	// And the vote's proposal MAC, under the request's key.
	var vote BatchRequest
	if err := vote.UnmarshalBinary(requests[4].bytes()); err != nil {
		t.Fatal(err)
	}
	if p := vote.Vote; !service.VerifyProposal(vote.Arch, vote.Classes[0], p.Mode, p.Commit, p.Voters, p.Seal) {
		t.Error("the vote's proposal MAC does not verify after the trip")
	}
}

// decodeCost runs decode and reports the bytes it allocated. Another
// goroutine (a leftover of an earlier test, the fuzz worker's plumbing)
// can allocate inside the window, so a reading over limit is retaken: a
// decoder that really over-allocates does so every time.
func decodeCost(limit uint64, decode func()) uint64 {
	var least uint64
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if cost := after.TotalAlloc - before.TotalAlloc; try == 0 || cost < least {
			least = cost
		}
		if least <= limit {
			break
		}
	}
	return least
}

// allocLimit is the decoder's bound for an n-byte frame: every decoded
// element is backed by at least one wire byte, and the widest element per
// wire byte is a BatchEntry (88 bytes of struct for 5 of wire), so a
// small multiple of the input plus the fixed cost of the result.
func allocLimit(n int) uint64 { return uint64(32*n) + 4096 }

// checkFrame is the fuzz property for one input, against both decoders:
// never panic, never allocate past the bound, and anything accepted
// re-encodes to a frame that decodes to the same value.
func checkFrame(t *testing.T, b []byte) {
	var req BatchRequest
	var reqErr error
	if cost := decodeCost(allocLimit(len(b)), func() { reqErr = req.UnmarshalBinary(b) }); cost > allocLimit(len(b)) {
		t.Errorf("request decoder allocated %d bytes for a %d-byte frame (limit %d)", cost, len(b), allocLimit(len(b)))
	}
	if reqErr == nil {
		var again BatchRequest
		if err := again.UnmarshalBinary(req.encode().bytes()); err != nil || !reflect.DeepEqual(req, again) {
			t.Errorf("accepted request does not round-trip (%v):\n%+v\n%+v", err, req, again)
		}
	} else if !errors.Is(reqErr, errFrame) {
		t.Errorf("request decoder error %v is not errFrame", reqErr)
	}
	var resp BatchResponse
	var respErr error
	if cost := decodeCost(allocLimit(len(b)), func() { respErr = resp.UnmarshalBinary(b) }); cost > allocLimit(len(b)) {
		t.Errorf("response decoder allocated %d bytes for a %d-byte frame (limit %d)", cost, len(b), allocLimit(len(b)))
	}
	if respErr == nil {
		var again BatchResponse
		if err := again.UnmarshalBinary(resp.encode().bytes()); err != nil || !reflect.DeepEqual(resp, again) {
			t.Errorf("accepted response does not round-trip (%v):\n%+v\n%+v", err, resp, again)
		}
	} else if !errors.Is(respErr, errFrame) {
		t.Errorf("response decoder error %v is not errFrame", respErr)
	}
}

// TestFrameRefusesDeclaredSizesUpFront: counts and lengths far beyond
// the bytes that remain are refused before anything is allocated for
// them, wherever in the frame they sit.
func TestFrameRefusesDeclaredSizesUpFront(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<30)
	header := append([]byte(frameMagic), frameVersion)
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	fields := join(str("fill"), str("http://a:1"), str("c"), str("dvm"))
	entryHead := join([]byte{flagAttested}, str("fill"), str("dvm"), str("app/A"))
	for name, frame := range map[string][]byte{
		"string length":  join(header, huge),
		"class count":    join(header, fields, huge),
		"entry count":    join(header, fields, []byte{0, 0, 0}, huge),
		"voter count":    join(header, fields, []byte{0, 0, 0, 1}, entryHead, make([]byte, 32), []byte{2}, huge),
		"seal length":    join(header, fields, []byte{0, 0, 0, 1}, entryHead, make([]byte, 32), []byte{2, 0}, huge),
		"payload length": join(header, fields, []byte{0, 0, 0, 1}, []byte{0}, str("fill"), str("dvm"), str("app/A"), huge),
		"error count":    join(header, []byte{0}, huge),
		"64-bit length":  join(header, binary.AppendUvarint(nil, 1<<62)),
	} {
		var req BatchRequest
		var resp BatchResponse
		var reqErr, respErr error
		cost := decodeCost(allocLimit(len(frame)), func() {
			reqErr = req.UnmarshalBinary(frame)
			respErr = resp.UnmarshalBinary(frame)
		})
		if reqErr == nil || respErr == nil {
			t.Errorf("%s: accepted (request %v, response %v)", name, reqErr, respErr)
		}
		if cost > allocLimit(len(frame)) {
			t.Errorf("%s: decoders allocated %d bytes for a %d-byte frame", name, cost, len(frame))
		}
	}
}

func FuzzPeerFrame(f *testing.F) {
	requests, responses := seedFrames(f)
	for _, enc := range append(requests, responses...) {
		whole := enc.bytes()
		f.Add(whole)
		// Cut at every byte of every metadata run (so at every field
		// boundary, and inside every field), and inside and right after
		// each payload (the odd runs).
		at := 0
		for i, run := range append(slices.Clip(enc.runs), enc.meta[enc.from:]) {
			if i%2 == 1 {
				f.Add(whole[:at+len(run)/2])
				at += len(run)
				continue
			}
			for end := at + len(run); at < end; at++ {
				f.Add(whole[:at])
			}
		}
		f.Add(append(bytes.Clone(whole), 0))
	}
	f.Add([]byte(`{"reason":"fill","arch":"dvm","classes":["app/A"]}`))
	f.Fuzz(checkFrame)
}

// TestFrameBodyReadsTheFrame: a request body — the frame's wire runs,
// sent back to back — is exactly the frame's bytes.
func TestFrameBodyReadsTheFrame(t *testing.T) {
	requests, _ := seedFrames(t)
	for i, f := range requests {
		if got := bytes.Join(f.wire(), nil); !bytes.Equal(got, f.bytes()) {
			t.Errorf("request %d: the body's runs join to %d bytes, want the %d-byte frame", i, len(got), len(f.bytes()))
		}
	}
}

// TestPeerRequestFrameFreedOnClose: a peer request's encoder lives until
// its exchange is over — the peer reads exactly the frame — and is then
// recycled once: after a success and after a transport error alike, the
// pool never hands one encoder out twice.
func TestPeerRequestFrameFreedOnClose(t *testing.T) {
	push := BatchRequest{Reason: proxy.ReasonReplica, Member: "http://127.0.0.1:1",
		Entries: []BatchEntry{{Arch: "dvm", Class: "app/A", Reason: proxy.ReasonReplica, Data: []byte("payload")}}}
	want := push.encode().bytes()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got, err := io.ReadAll(r.Body); err != nil || !bytes.Equal(got, want) {
			t.Errorf("the peer read %d bytes (%v), want the %d-byte frame", len(got), err, len(want))
		}
		serveFrame(w, BatchResponse{})
	}))
	defer peer.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + l.Addr().String()
	l.Close()

	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{})
	for _, tc := range []struct {
		name  string
		peer  string
		fails bool
	}{
		{name: "success", peer: peer.URL},
		{name: "transport error", peer: refused, fails: true},
	} {
		_, err := n.doBatch(context.Background(), tc.peer, BatchPath, push, 2*time.Second, nil)
		if (err != nil) != tc.fails {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if a, b := newFrameEnc(), newFrameEnc(); a == b {
			t.Errorf("%s: the pool handed out one encoder twice", tc.name)
		}
	}
}
