package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceHeader carries the trace identifier on a request across an HTTP
// hop (proxy front end, peer fill, security server, monitoring
// console). The receiving daemon joins the trace under that ID and
// returns its spans in TraceSpansHeader on the response, so the caller
// ends up holding the whole cross-host timeline. A request without the
// header is untraced, and its response carries neither header.
const TraceHeader = "X-DVM-Trace"

// TraceSpansHeader carries the hop's recorded spans back on the
// response, encoded with EncodeSpans (see Trace.WriteSpans).
const TraceSpansHeader = "X-DVM-Trace-Spans"

// Span is one timed stage of a request: which node did what, when it
// started (offset from the trace's birth), and how long it took.
type Span struct {
	// Stage names the work, e.g. "proxy.request", "origin.fetch",
	// "pipeline", "peer.fill", "queue.wait", "secd.decide".
	Stage string
	// Node identifies the daemon that recorded the span (a peer URL in a
	// cluster, or a configured service name).
	Node string
	// Start is the span's start offset from the trace's creation. Spans
	// appended from a remote hop are shifted into the local timeline by
	// AppendShifted, so offsets stay comparable across hosts.
	Start time.Duration
	// Dur is how long the stage took.
	Dur time.Duration
}

// Trace is a request's cross-hop timeline: an identifier plus the span
// records accumulated while the request moved through daemons. A request
// has a trace only if its entry point asked for one — an in-process
// caller by putting NewTrace in the context, an HTTP caller by sending
// TraceHeader — and nothing below the entry point ever mints one. All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// trace records nothing, sends no header and allocates nothing), so
// untraced paths pay nothing.
type Trace struct {
	id    string
	birth Timer

	mu    sync.Mutex
	spans []Span
}

// NewTrace creates a trace with a fresh process-unique ID: the caller
// asks for a timeline of its request. Only an entry point (client, bench
// loop, test) creates one; every deeper layer only adds spans.
func NewTrace() *Trace { return &Trace{id: newTraceID(), birth: StartTimer()} }

// JoinTrace continues an upstream request's trace under its existing ID
// (from TraceHeader). An empty id means the caller asked for no trace:
// the result is nil, and the hop records and returns no spans.
func JoinTrace(id string) *Trace {
	if id == "" {
		return nil
	}
	return &Trace{id: id, birth: StartTimer()}
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Elapsed returns the time since the trace was created.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return t.birth.Elapsed()
}

// StartSpan begins timing one stage. End returns the stage's duration
// and, on a traced request, records the span; a span that is never ended
// records nothing. On a nil trace the timer still measures — histograms
// fed from End see real durations whether or not anyone asked for a
// trace — but records nothing and allocates nothing.
func (t *Trace) StartSpan(node, stage string) SpanTimer {
	s := SpanTimer{tm: StartTimer()}
	if t != nil {
		s.rec = &spanRecord{t: t, node: node, stage: stage, start: t.Elapsed()}
	}
	return s
}

// append adds finished spans (already in this trace's timeline).
func (t *Trace) append(spans ...Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// AppendShifted merges spans recorded by a remote hop into this trace,
// shifting their start offsets by shift — normally the local elapsed
// time when the hop began — so the remote stages sort sensibly into the
// local timeline despite the hosts' different time bases.
func (t *Trace) AppendShifted(spans []Span, shift time.Duration) {
	if t == nil || len(spans) == 0 {
		return
	}
	shifted := make([]Span, len(spans))
	for i, s := range spans {
		s.Start += shift
		shifted[i] = s
	}
	t.append(shifted...)
}

// Spans returns a copy of the recorded spans, ordered by start offset
// (ties keep record order).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// SpanTimer times one in-progress stage. It is a value: the timing lives
// in it, and only a traced request's span record is allocated. On a
// traced request End is idempotent — the span is recorded once, and
// later Ends return the recorded duration.
type SpanTimer struct {
	tm  Timer
	rec *spanRecord // nil on an untraced request
}

// spanRecord is the part of a span that only a traced request keeps.
type spanRecord struct {
	t     *Trace
	node  string
	stage string
	start time.Duration

	mu    sync.Mutex
	done  bool
	total time.Duration
}

// Elapsed returns the time since the span started without ending it.
func (s SpanTimer) Elapsed() time.Duration { return s.tm.Elapsed() }

// End returns the stage's duration and records the span on a traced
// request.
func (s SpanTimer) End() time.Duration {
	d := s.tm.Elapsed()
	r := s.rec
	if r == nil {
		return d
	}
	r.mu.Lock()
	if r.done {
		d = r.total
		r.mu.Unlock()
		return d
	}
	r.done, r.total = true, d
	r.mu.Unlock()
	r.t.append(Span{Stage: r.stage, Node: r.node, Start: r.start, Dur: d})
	return d
}

// traceKey keys the trace in a context.Context.
type traceKey struct{}

// WithTrace attaches tr to ctx; every layer below finds it with
// FromContext. A nil trace leaves ctx as it is, so an untraced request
// costs no context value.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the context's trace, or nil when the request is
// untraced.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// WriteSpans puts the trace's spans in TraceSpansHeader on a hop's
// response, for the caller to re-base onto its own timeline. An untraced
// request (nil) writes nothing.
func (t *Trace) WriteSpans(h http.Header) {
	if t != nil {
		h.Set(TraceSpansHeader, EncodeSpans(t.Spans()))
	}
}

// EncodeSpans renders spans for the TraceSpansHeader response header:
// semicolon-separated records of tilde-separated fields
// stage~node~startNanos~durNanos. Stage and node are sanitized so the
// encoding never produces an invalid header value.
func EncodeSpans(spans []Span) string {
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(headerToken(s.Stage))
		b.WriteByte('~')
		b.WriteString(headerToken(s.Node))
		b.WriteByte('~')
		b.WriteString(strconv.FormatInt(s.Start.Nanoseconds(), 10))
		b.WriteByte('~')
		b.WriteString(strconv.FormatInt(s.Dur.Nanoseconds(), 10))
	}
	return b.String()
}

// DecodeSpans parses an EncodeSpans header value. The value arrives from
// a peer, so every record is validated before anything is allocated for
// it: a first pass checks and counts the records, and only a value that
// passes whole gets its one exactly sized slice, whose stages and nodes
// are substrings of s. A 48-byte Span needs at least six input bytes
// ("~~0~0;"), so the result is at most eight bytes per input byte.
func DecodeSpans(s string) ([]Span, error) {
	if s == "" {
		return nil, nil
	}
	n := 0
	for rest, more := s, true; more; n++ {
		var rec string
		rec, rest, more = strings.Cut(rest, ";")
		if _, err := decodeSpan(rec); err != nil {
			return nil, err
		}
	}
	out := make([]Span, 0, n)
	for rest, more := s, true; more; {
		var rec string
		rec, rest, more = strings.Cut(rest, ";")
		sp, _ := decodeSpan(rec)
		out = append(out, sp)
	}
	return out, nil
}

// decodeSpan parses one stage~node~startNanos~durNanos record without
// allocating; only an error allocates, and its quote of the input is
// clipped, so a bad header of any size costs the same to refuse.
func decodeSpan(rec string) (Span, error) {
	stage, rest, ok1 := strings.Cut(rec, "~")
	node, rest, ok2 := strings.Cut(rest, "~")
	startF, durF, ok3 := strings.Cut(rest, "~")
	if !ok1 || !ok2 || !ok3 || strings.Contains(durF, "~") {
		return Span{}, fmt.Errorf("telemetry: bad span record %q", clip(rec))
	}
	start, err := parseNanos(startF)
	if err != nil {
		return Span{}, fmt.Errorf("telemetry: bad span start %q", clip(startF))
	}
	dur, err := parseNanos(durF)
	if err != nil {
		return Span{}, fmt.Errorf("telemetry: bad span duration %q", clip(durF))
	}
	return Span{Stage: stage, Node: node, Start: start, Dur: dur}, nil
}

// maxNanosDigits is the longest decimal int64 with its sign.
const maxNanosDigits = 20

// parseNanos parses a decimal nanosecond count. A field longer than any
// int64 is refused before strconv sees it, because strconv's error keeps a
// copy of its input.
func parseNanos(f string) (time.Duration, error) {
	if len(f) > maxNanosDigits {
		return 0, strconv.ErrRange
	}
	v, err := strconv.ParseInt(f, 10, 64)
	return time.Duration(v), err
}

// clip bounds the part of a bad header value an error message quotes.
func clip(s string) string {
	const max = 32
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

// headerToken strips the encoding's separators and header-hostile bytes
// from a stage or node name.
func headerToken(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '~' || r == ';' || r < 0x21 || r > 0x7e {
			return '_'
		}
		return r
	}, s)
}
