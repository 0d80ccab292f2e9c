package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// spanAllocLimit bounds what decoding an n-byte span header may allocate:
// one 48-byte Span per record, and a record takes at least six input bytes
// ("~~0~0" and its separator); the constant covers an error value.
func spanAllocLimit(n int) uint64 { return uint64(8*n) + 1024 }

// allocated reports the bytes fn allocates; a reading over limit is
// retaken, because another goroutine (the fuzz worker's plumbing) can
// allocate inside the window and a decoder that really over-allocates
// does so every time.
func allocated(limit uint64, fn func()) uint64 {
	var least uint64
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
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

// checkDecodeSpans is the fuzz property for one span header value:
// DecodeSpans never panics or allocates past the bound, a refused value
// yields no spans, and an accepted one re-encodes to a value that decodes
// to the same spans, stage and node as EncodeSpans sanitizes them.
func checkDecodeSpans(t *testing.T, s string) {
	var spans []Span
	var err error
	limit := spanAllocLimit(len(s))
	if cost := allocated(limit, func() { spans, err = DecodeSpans(s) }); cost > limit {
		t.Errorf("DecodeSpans allocated %d bytes for a %d-byte header (limit %d)", cost, len(s), limit)
	}
	if err != nil {
		if spans != nil {
			t.Errorf("refused header %q still returned %d spans", s, len(spans))
		}
		return
	}
	enc := EncodeSpans(spans)
	back, err := DecodeSpans(enc)
	if err != nil {
		t.Fatalf("accepted header re-encodes to %q, which does not decode: %v", enc, err)
	}
	if len(back) != len(spans) {
		t.Fatalf("accepted header of %d spans round-trips to %d", len(spans), len(back))
	}
	for i, sp := range spans {
		want := Span{Stage: headerToken(sp.Stage), Node: headerToken(sp.Node), Start: sp.Start, Dur: sp.Dur}
		if back[i] != want {
			t.Errorf("span %d round-trips to %+v, want %+v", i, back[i], want)
		}
	}
}

// FuzzDecodeSpans feeds arbitrary X-DVM-Trace-Spans values to
// DecodeSpans, the decoder a node runs on a peer's response header.
// Seeds: real encodings (one span, several, odd names and negative or
// extreme offsets), each cut at every byte, and hand-made values: a flood
// of separators, fields out of range or too long, extra fields.
func FuzzDecodeSpans(f *testing.F) {
	for _, spans := range [][]Span{
		{{Stage: "proxy.request", Node: "http://127.0.0.1:9001", Start: 0, Dur: 42 * time.Millisecond}},
		{
			{Stage: "peer.fill", Node: "http://127.0.0.1:9001", Start: time.Millisecond, Dur: 30 * time.Millisecond},
			{Stage: "origin.fetch", Node: "http://127.0.0.1:9002", Start: 5 * time.Millisecond, Dur: 20 * time.Millisecond},
			{Stage: "", Node: "", Start: -1, Dur: 1<<63 - 1},
		},
		{{Stage: "bad~stage;x", Node: "node with space é", Start: -1 << 63, Dur: 0}},
	} {
		enc := EncodeSpans(spans)
		for i := 0; i <= len(enc); i++ {
			f.Add(enc[:i])
		}
		f.Add(enc + ";")
	}
	for _, s := range []string{
		strings.Repeat(";", 1024),
		strings.Repeat("~", 1024),
		strings.Repeat("~~0~0;", 200) + "~~0~0",
		"a~b~99999999999999999999~1",
		"a~b~" + strings.Repeat("0", 4096) + "~1",
		"a~b~+1~-0",
		"a~b~1~2~3",
		"a~b~0x1~1",
		"\x00~\xff~1~1",
	} {
		f.Add(s)
	}
	f.Fuzz(checkDecodeSpans)
}
