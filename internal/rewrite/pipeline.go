package rewrite

import (
	"fmt"
	"sync"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/telemetry"
)

// Context carries per-class information through a pipeline run: which
// client requested the class, accumulated service notes, and per-filter
// timing for the audit trail.
type Context struct {
	// ClientID identifies the requesting client (from the handshake
	// protocol of §3.3); empty for client-independent processing.
	ClientID string
	// ClientArch is the client's native format descriptor, used by the
	// compilation service (§3.4).
	ClientArch string
	// Notes lets filters publish results to later filters and to the
	// proxy (e.g. the verifier's check census, the optimizer's split map).
	// Filters go through SetNote/Note/AddIntNote rather than the map, so a
	// filter that starts goroutines of its own may publish from them;
	// reading the map directly is fine once the pipeline has returned.
	Notes map[string]any
	// FilterTimings records wall-clock time spent per filter. Like Notes,
	// it is written under the context lock and safe to read directly
	// after the run.
	FilterTimings map[string]time.Duration

	// Trace/Node, when set, receive one span per filter stage
	// (filter.<name>) plus the verifier's per-phase spans.
	Trace *telemetry.Trace
	Node  string

	mu sync.Mutex
}

// NewContext returns an empty context.
func NewContext() *Context {
	return &Context{
		Notes:         make(map[string]any),
		FilterTimings: make(map[string]time.Duration),
	}
}

// SetNote publishes a note under the context lock.
func (c *Context) SetNote(key string, v any) {
	c.mu.Lock()
	c.Notes[key] = v
	c.mu.Unlock()
}

// Note reads a note under the context lock.
func (c *Context) Note(key string) (any, bool) {
	c.mu.Lock()
	v, ok := c.Notes[key]
	c.mu.Unlock()
	return v, ok
}

// AddIntNote adds delta to an integer note, creating it at delta if
// absent (audit sites, checks inserted).
func (c *Context) AddIntNote(key string, delta int) {
	c.mu.Lock()
	if prev, ok := c.Notes[key].(int); ok {
		c.Notes[key] = prev + delta
	} else {
		c.Notes[key] = delta
	}
	c.mu.Unlock()
}

func (c *Context) addTiming(name string, d time.Duration) {
	c.mu.Lock()
	c.FilterTimings[name] += d
	c.mu.Unlock()
}

// Filter is one static service component: a code transformation applied
// to a parsed class (paper Figure 2's pipeline stages — verifier,
// security, compiler, optimizer, profiler — all implement this).
type Filter interface {
	// Name identifies the filter in audit trails and timings.
	Name() string
	// Transform inspects and/or rewrites the class in place.
	Transform(cf *classfile.ClassFile, ctx *Context) error
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc struct {
	FilterName string
	Fn         func(cf *classfile.ClassFile, ctx *Context) error
}

// Name implements Filter.
func (f FilterFunc) Name() string { return f.FilterName }

// Transform implements Filter.
func (f FilterFunc) Transform(cf *classfile.ClassFile, ctx *Context) error {
	return f.Fn(cf, ctx)
}

// Pipeline composes filters. Process parses the class once, runs every
// filter over the shared in-memory form, and serializes once — the
// paper's single-parse proxy structure. One class is processed on the
// goroutine that called Process, start to finish: a ClassFile and its
// constant pool have one owner from Parse to Release, and concurrency
// comes from the proxy running many classes at once, not from splitting
// one. A Pipeline itself is immutable once built and may be shared.
type Pipeline struct {
	filters []Filter
}

// NewPipeline builds a pipeline from filters in application order.
func NewPipeline(filters ...Filter) *Pipeline {
	return &Pipeline{filters: filters}
}

// Append adds a filter at the end of the pipeline.
func (p *Pipeline) Append(f Filter) { p.filters = append(p.filters, f) }

// Filters returns the filter list in application order.
func (p *Pipeline) Filters() []Filter { return p.filters }

// Process runs the pipeline over one serialized class.
func (p *Pipeline) Process(data []byte, ctx *Context) ([]byte, error) {
	return p.ProcessAppend(nil, data, ctx)
}

// ProcessAppend is Process appending the transformed class to dst, for a
// caller that recycles the buffer (an attestation variant only hashes what
// it produces).
func (p *Pipeline) ProcessAppend(dst, data []byte, ctx *Context) ([]byte, error) {
	if ctx == nil {
		ctx = NewContext()
	}
	cf, err := classfile.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("rewrite: pipeline parse: %w", err)
	}
	// The class graph is dead once it is re-serialized or rejected, so the
	// pool and the arena go back for the next parse on every exit: a stream
	// of classes some filter refuses must cost no more than one it accepts.
	// Filters publish only value types and strings through Notes, and an
	// error is formatted text, never the ClassFile or anything decoded.
	defer cf.Release()
	if err := p.ProcessClass(cf, ctx); err != nil {
		return nil, err
	}
	out, err := cf.AppendEncode(dst)
	if err != nil {
		return nil, fmt.Errorf("rewrite: pipeline encode: %w", err)
	}
	return out, nil
}

// ProcessClass runs the filters over an already-parsed class. Whatever a
// filter does wrong fails this class and nothing else: a panic is
// recovered into the class's error (the proxy serves such a class as
// rejected; it must not take the node down), and a filter that ran the
// constant pool out of room is reported as that overflow, whichever
// error the indices it then got back led it to.
func (p *Pipeline) ProcessClass(cf *classfile.ClassFile, ctx *Context) (err error) {
	var running Filter
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rewrite: filter %s on %s: panic: %v", running.Name(), cf.Name(), r)
		}
	}()
	for _, f := range p.filters {
		running = f
		span := ctx.Trace.StartSpan(ctx.Node, "filter."+f.Name())
		start := telemetry.StartTimer()
		err := f.Transform(cf, ctx)
		ctx.addTiming(f.Name(), start.Elapsed())
		span.End()
		if perr := cf.Pool.Err(); perr != nil {
			err = perr
		}
		if err != nil {
			return fmt.Errorf("rewrite: filter %s on %s: %w", f.Name(), cf.Name(), err)
		}
	}
	return nil
}
