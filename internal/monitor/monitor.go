// Package monitor implements the DVM's remote monitoring service (paper
// §3.3): a static audit filter that transforms applications to invoke
// auditing at method and constructor boundaries, a handshake protocol
// that establishes client credentials and session identifiers, a central
// administration collector whose logs live outside the reach of
// untrusted code, and an instruction-level profiling service that builds
// dynamic call graphs and first-use orders — the input to the §5
// repartitioning optimizer.
package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dvm/internal/telemetry"
)

// Event is one audit record as stored by the collector.
type Event struct {
	Session string
	Class   string
	Method  string
	Kind    string // "enter", "exit", "note"
	Seq     int64
	Time    time.Time
}

// ClientInfo is what a client reports during the handshake: the
// monitoring console tracks "client hardware configurations, users, JVM
// instances, code versions and noteworthy client events."
type ClientInfo struct {
	User        string
	Hardware    string
	Arch        string
	JVMVersion  string
	CodeVersion string
}

// Collector is the central administration host. A security breach on a
// client can stop new events but cannot tamper with the stored log: the
// log is append-only and lives here, not on the client.
type Collector struct {
	mu       sync.Mutex
	sessions map[string]*sessionRecord
	events   []Event
	seq      int64
	nextID   int

	reg *telemetry.Registry
	m   struct {
		Events   *telemetry.Counter `metric:"events_total"`
		Batches  *telemetry.Counter `metric:"batches_total"`
		Rejected *telemetry.Counter `metric:"rejected_total"`
	}

	onFirstUse func(session, class, method string)
}

type sessionRecord struct {
	id    string
	info  ClientInfo
	stack []string // call stack reconstructed from enter/exit
	graph map[string]map[string]int
	first []string
	seen  map[string]bool
}

// NewCollector creates an empty monitoring console.
func NewCollector() *Collector {
	c := &Collector{sessions: make(map[string]*sessionRecord)}
	c.reg = telemetry.NewRegistry("monitor")
	c.reg.Declare(&c.m)
	c.reg.Gauge("sessions", func() float64 {
		return float64(len(c.Sessions()))
	})
	c.reg.Gauge("events_stored", func() float64 {
		return float64(c.EventCount())
	})
	return c
}

// Telemetry exposes the console's metric registry.
func (c *Collector) Telemetry() *telemetry.Registry { return c.reg }

// Health reports the shared versioned health schema.
func (c *Collector) Health() telemetry.Health {
	return c.reg.Health(telemetry.StatusOK)
}

// Handshake registers a client and assigns its session identifier.
func (c *Collector) Handshake(info ClientInfo) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := fmt.Sprintf("sess-%04d", c.nextID)
	c.sessions[id] = &sessionRecord{
		id:    id,
		info:  info,
		graph: make(map[string]map[string]int),
		seen:  make(map[string]bool),
	}
	return id
}

// Record ingests one audit event for a session, stamped with the
// collector's clock. Unknown sessions are rejected (the handshake
// established credentials).
func (c *Collector) Record(session, class, method, kind string) error {
	return c.RecordAt(session, class, method, kind, time.Time{})
}

// RecordAt is Record with an explicit event timestamp. A zero at means
// "now". Remote batches carry the client-side stamp on the wire, so an
// event delivered late — after a failed flush was re-queued and retried
// — keeps the time it actually happened rather than the time the retry
// landed.
func (c *Collector) RecordAt(session, class, method, kind string, at time.Time) error {
	first, err := c.recordAt(session, class, method, kind, at)
	if first {
		c.mu.Lock()
		fn := c.onFirstUse
		c.mu.Unlock()
		if fn != nil {
			// Invoked outside c.mu so the hook may call back into the
			// collector (or feed a predictor that does its own locking).
			fn(session, class, method)
		}
	}
	return err
}

func (c *Collector) recordAt(session, class, method, kind string, at time.Time) (firstUse bool, err error) {
	if at.IsZero() {
		at = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[session]
	if !ok {
		c.m.Rejected.Inc()
		return false, fmt.Errorf("monitor: unknown session %q", session)
	}
	c.seq++
	c.m.Events.Inc()
	c.events = append(c.events, Event{
		Session: session, Class: class, Method: method, Kind: kind,
		Seq: c.seq, Time: at,
	})
	node := class + "." + method
	switch kind {
	case "enter":
		if len(s.stack) > 0 {
			caller := s.stack[len(s.stack)-1]
			edges := s.graph[caller]
			if edges == nil {
				edges = make(map[string]int)
				s.graph[caller] = edges
			}
			edges[node]++
		}
		if !s.seen[node] {
			s.seen[node] = true
			s.first = append(s.first, node)
			firstUse = true
		}
		s.stack = append(s.stack, node)
	case "exit":
		// Pop to the matching frame; tolerate exceptional unwinds that
		// skipped exit events.
		for i := len(s.stack) - 1; i >= 0; i-- {
			if s.stack[i] == node {
				s.stack = s.stack[:i]
				break
			}
		}
	case "note":
		// First-use probe from the profiling service; method carries its
		// descriptor.
		if !s.seen[node] {
			s.seen[node] = true
			s.first = append(s.first, node)
			firstUse = true
		}
	}
	return firstUse, nil
}

// OnFirstUse registers a hook invoked (outside the collector lock) each
// time a session observes a method for the first time — the live
// first-use stream. Pass nil to clear.
func (c *Collector) OnFirstUse(fn func(session, class, method string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onFirstUse = fn
}

// Events returns a copy of the stored audit trail (optionally filtered
// by session; "" means all).
func (c *Collector) Events(session string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if session == "" || e.Session == session {
			out = append(out, e)
		}
	}
	return out
}

// EventCount returns the total events stored.
func (c *Collector) EventCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Sessions returns the known session ids, sorted.
func (c *Collector) Sessions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.sessions))
	for id := range c.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Info returns the handshake record for a session.
func (c *Collector) Info(session string) (ClientInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[session]
	if !ok {
		return ClientInfo{}, false
	}
	return s.info, true
}

// CallEdge is one edge of the dynamic call graph with its traversal
// count.
type CallEdge struct {
	Caller string
	Callee string
	Count  int
}

// CallGraph returns the dynamic call graph reconstructed from a
// session's enter/exit events, sorted for determinism.
func (c *Collector) CallGraph(session string) []CallEdge {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[session]
	if !ok {
		return nil
	}
	var out []CallEdge
	for caller, edges := range s.graph {
		for callee, n := range edges {
			out = append(out, CallEdge{Caller: caller, Callee: callee, Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// FirstUseOrders returns every session's first-use order keyed by
// session id — the bulk profile feed a predictor replays at startup.
func (c *Collector) FirstUseOrders() map[string][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]string, len(c.sessions))
	for id, s := range c.sessions {
		if len(s.first) > 0 {
			out[id] = append([]string(nil), s.first...)
		}
	}
	return out
}

// FirstUseOrder returns the methods of a session in first-invocation
// order — the profile the repartitioning optimizer consumes.
func (c *Collector) FirstUseOrder(session string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[session]
	if !ok {
		return nil
	}
	return append([]string(nil), s.first...)
}
