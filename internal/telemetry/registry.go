package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Safe on a nil receiver
// so optional wiring (e.g. resilience.Hop.Retries) costs nothing when
// absent.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds one daemon's metrics: named counters, histograms, and
// gauge functions, rendered as Prometheus text on /metrics and as
// counter snapshots in the shared Health schema. Metric registration is
// idempotent (get-or-create), so a package can look a metric up by name
// wherever the handle is inconvenient to thread.
type Registry struct {
	service string
	prefix  string

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]func() float64
}

// NewRegistry creates a registry for a service; metric names are
// prefixed dvm_<service>_ in the Prometheus rendering.
func NewRegistry(service string) *Registry {
	return &Registry{
		service:  service,
		prefix:   "dvm_" + metricToken(service) + "_",
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]func() float64),
	}
}

// Service returns the registry's service name.
func (r *Registry) Service() string { return r.service }

// Counter returns (creating if needed) the named counter. Counters use
// Prometheus naming: lowercase, underscores, suffix _total.
func (r *Registry) Counter(name string) *Counter {
	name = metricToken(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram; bounds
// apply only on creation (nil = defaultLatencyBounds). Histograms use
// the suffix _seconds.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	name = metricToken(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Gauge registers a function sampled at scrape time (breaker state,
// cache bytes, ring size). Re-registering a name replaces the function.
func (r *Registry) Gauge(name string, f func() float64) {
	name = metricToken(name)
	r.mu.Lock()
	r.gauges[name] = f
	r.mu.Unlock()
}

// CounterValues snapshots every counter (for the Health schema).
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// GaugeValues samples every gauge (for the Health schema).
func (r *Registry) GaugeValues() map[string]float64 {
	r.mu.Lock()
	fs := make(map[string]func() float64, len(r.gauges))
	for name, f := range r.gauges {
		fs[name] = f
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(fs))
	for name, f := range fs {
		out[name] = f()
	}
	return out
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format, sorted by name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	counterNames := sortedKeys(r.counters)
	histNames := sortedKeys(r.hists)
	gaugeNames := sortedKeys(r.gauges)
	counters := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		counters[n] = r.counters[n].Load()
	}
	hists := make(map[string]HistSnapshot, len(histNames))
	for _, n := range histNames {
		hists[n] = r.hists[n].Snapshot()
	}
	gauges := make(map[string]func() float64, len(gaugeNames))
	for _, n := range gaugeNames {
		gauges[n] = r.gauges[n]
	}
	r.mu.Unlock()

	for _, n := range counterNames {
		full := r.prefix + n
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", full, full, counters[n])
	}
	for _, n := range gaugeNames {
		full := r.prefix + n
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", full, full,
			strconv.FormatFloat(gauges[n](), 'g', -1, 64))
	}
	for _, n := range histNames {
		full := r.prefix + n
		s := hists[n]
		fmt.Fprintf(w, "# TYPE %s histogram\n", full)
		var cum int64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", full, promSeconds(b), cum)
		}
		cum += s.Counts[len(s.Bounds)]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", full, cum)
		fmt.Fprintf(w, "%s_sum %s\n", full, promSeconds(s.Sum))
		fmt.Fprintf(w, "%s_count %d\n", full, cum)
	}
}

// Handler serves the registry as a Prometheus /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// promSeconds renders a duration as Prometheus seconds.
func promSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// metricToken lowercases a name and maps everything outside
// [a-z0-9_] to '_', per the Prometheus naming rules.
func metricToken(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, s)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
