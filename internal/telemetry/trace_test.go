package telemetry

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanEncodeDecodeRoundTrip(t *testing.T) {
	in := []Span{
		{Stage: "proxy.request", Node: "http://127.0.0.1:9001", Start: 0, Dur: 42 * time.Millisecond},
		{Stage: "peer.fill", Node: "http://127.0.0.1:9001", Start: time.Millisecond, Dur: 30 * time.Millisecond},
		{Stage: "origin.fetch", Node: "http://127.0.0.1:9002", Start: 5 * time.Millisecond, Dur: 20 * time.Millisecond},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("span %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestSpanEncodeSanitizesSeparators(t *testing.T) {
	enc := EncodeSpans([]Span{{Stage: "bad~stage;x", Node: "node with space", Dur: time.Second}})
	dec, err := DecodeSpans(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != 1 || strings.ContainsAny(dec[0].Stage, "~;") {
		t.Fatalf("separators survived sanitizing: %+v", dec)
	}
}

func TestDecodeSpansRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"a~b~c", "a~b~x~1", "a~b~1~x"} {
		if _, err := DecodeSpans(bad); err == nil {
			t.Fatalf("DecodeSpans(%q) succeeded", bad)
		}
	}
}

func TestTraceAppendShiftedOrdering(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan("local", "proxy.request")
	// A remote hop that started 10ms into the local timeline and recorded
	// two spans at its own offsets 0 and 2ms.
	tr.AppendShifted([]Span{
		{Stage: "proxy.request", Node: "remote", Start: 0, Dur: 5 * time.Millisecond},
		{Stage: "origin.fetch", Node: "remote", Start: 2 * time.Millisecond, Dur: 3 * time.Millisecond},
	}, 10*time.Millisecond)
	sp.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Local root span started at ~0, remote spans shifted to 10ms and 12ms.
	if spans[0].Node != "local" {
		t.Fatalf("first span = %+v, want local root", spans[0])
	}
	if spans[1].Stage != "proxy.request" || spans[1].Start != 10*time.Millisecond {
		t.Fatalf("remote root span = %+v", spans[1])
	}
	if spans[2].Stage != "origin.fetch" || spans[2].Start != 12*time.Millisecond {
		t.Fatalf("remote child span = %+v", spans[2])
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan("n", "s")
	d1 := sp.End()
	d2 := sp.End()
	if d1 != d2 {
		t.Fatalf("End returned %v then %v", d1, d2)
	}
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

// TestNilTraceSafe: an untraced request (nil trace) records, writes and
// allocates nothing, but its stage timers still measure — the histograms
// fed from End must not depend on whether anyone asked for a trace.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Elapsed() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace leaked state")
	}
	sp := tr.StartSpan("n", "s")
	time.Sleep(time.Millisecond)
	if sp.Elapsed() < time.Millisecond || sp.End() < time.Millisecond {
		t.Fatal("untraced span timer did not measure the stage")
	}
	tr.AppendShifted([]Span{{Stage: "x"}}, 0) // must not panic
	if tr.Spans() != nil {
		t.Fatal("nil trace recorded spans")
	}
	h := http.Header{}
	tr.WriteSpans(h)
	if len(h) != 0 {
		t.Fatalf("nil trace wrote headers: %v", h)
	}
	ctx := context.Background()
	if WithTrace(ctx, tr) != ctx {
		t.Fatal("attaching a nil trace changed the context")
	}
	if n := testing.AllocsPerRun(100, func() {
		s := tr.StartSpan("n", "s")
		s.End()
	}); n != 0 {
		t.Fatalf("timing an untraced stage allocated %.0f times", n)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context had a trace")
	}
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
}

func TestJoinTraceKeepsID(t *testing.T) {
	if got := JoinTrace("abc123").ID(); got != "abc123" {
		t.Fatalf("joined ID = %q", got)
	}
	// No header means the caller asked for no trace: nothing is minted.
	if tr := JoinTrace(""); tr != nil {
		t.Fatalf("empty join minted trace %q", tr.ID())
	}
	a, b := NewTrace(), NewTrace()
	if a.ID() == b.ID() {
		t.Fatalf("trace IDs collide: %q", a.ID())
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.StartSpan("n", "stage").End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 1600 {
		t.Fatalf("recorded %d spans, want 1600", got)
	}
}
