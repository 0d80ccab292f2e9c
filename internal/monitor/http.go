package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/jvm"
	"dvm/internal/resilience"
	"dvm/internal/telemetry"
)

// HTTP transport for the remote monitoring service: clients handshake
// and stream audit events to the central administration console over the
// network, exactly as §3.3 describes ("as each application comes up, it
// contacts the remote monitoring console and a handshake protocol
// establishes the credentials of the user and assigns an identifier to
// the session"). The console host keeps the logs out of reach of the
// monitored clients.
//
// Wire format (JSON over HTTP):
//
//	POST /handshake   {user, hardware, arch, jvmVersion, codeVersion} -> {session}
//	POST /events      {session, events: [{class, method, kind}]}
//	GET  /sessions                       -> ["sess-0001", ...]
//	GET  /events?session=sess-0001       -> [...]
//	GET  /callgraph?session=sess-0001    -> [{caller, callee, count}]

type wireEvent struct {
	Class  string `json:"class"`
	Method string `json:"method"`
	Kind   string `json:"kind"`
	// Time is the client-side stamp taken when the event was buffered.
	// It rides along on retries so a re-delivered batch keeps original
	// event times (a zero/absent Time falls back to the console clock).
	Time time.Time `json:"time,omitempty"`
}

type wireBatch struct {
	Session string      `json:"session"`
	Events  []wireEvent `json:"events"`
}

type wireHandshake struct {
	User        string `json:"user"`
	Hardware    string `json:"hardware"`
	Arch        string `json:"arch"`
	JVMVersion  string `json:"jvmVersion"`
	CodeVersion string `json:"codeVersion"`
}

// Handler exposes the collector as the administration console's HTTP
// interface.
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/handshake", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var hs wireHandshake
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&hs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		session := c.Handshake(ClientInfo{
			User: hs.User, Hardware: hs.Hardware, Arch: hs.Arch,
			JVMVersion: hs.JVMVersion, CodeVersion: hs.CodeVersion,
		})
		writeJSON(w, map[string]string{"session": session})
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var batch wireBatch
			if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&batch); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			c.m.Batches.Inc()
			for _, e := range batch.Events {
				if err := c.RecordAt(batch.Session, e.Class, e.Method, e.Kind, e.Time); err != nil {
					http.Error(w, err.Error(), http.StatusForbidden)
					return
				}
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodGet:
			writeJSON(w, c.Events(r.URL.Query().Get("session")))
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Sessions())
	})
	mux.HandleFunc("/callgraph", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.CallGraph(r.URL.Query().Get("session")))
	})
	mux.HandleFunc("/firstuse", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.FirstUseOrder(r.URL.Query().Get("session")))
	})
	mux.Handle("/healthz", telemetry.HealthHandler(c.Health))
	mux.Handle("/metrics", c.reg.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// maxRetainedEvents bounds the client-side buffer when the console is
// unreachable: failed batches are kept for retry, but a dead console
// must not grow client memory without bound, so the oldest events are
// dropped past this cap.
const maxRetainedEvents = 4096

// RemoteSession is the client side of the HTTP monitoring protocol. It
// batches events to amortize round trips (Flush sends; Close flushes).
// The VM invokes the audit hooks from whatever thread executes the
// instrumented code, so the buffer and error latch are mutex-guarded.
//
// Monitoring is an auxiliary service and fails OPEN: when the console
// is unreachable, events are retained up to a cap, the oldest are
// dropped (counted in Dropped), and execution continues — a dead
// console must never stall or stop the application. While the console
// breaker is open, flushes skip the network entirely.
type RemoteSession struct {
	base    string
	hop     resilience.Hop
	Session string

	dropped atomic.Int64

	mu        sync.Mutex
	buf       []wireEvent
	batchSize int
	// next is the buffer length at which add flushes: one batch past
	// what the last flush left behind, so a buffer a dead console keeps
	// full is re-sent once per batch of new events, not on every event.
	next int
	// err records the first delivery failure; auditing must never
	// disturb the application ("a security breach may stop the creation
	// of new audit events"), so errors are latched, not raised.
	err error
}

// Err returns the first delivery failure, if any.
func (rs *RemoteSession) Err() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.err
}

// Dropped returns the number of events discarded because the console
// was unreachable and the retention cap was hit (fail-open losses).
func (rs *RemoteSession) Dropped() int64 { return rs.dropped.Load() }

// Breaker exposes the console-hop circuit breaker (diagnostics).
func (rs *RemoteSession) Breaker() *resilience.Breaker { return rs.hop.Breaker() }

// AttachHTTPWith handshakes with a console at baseURL and wires the VM's
// audit and first-use hooks to it. Events are batched (batchSize ≤ 0
// means 64). p is the console hop's policy (the zero Policy takes the
// defaults): a zero Timeout bounds each handshake and flush at 5 s. A
// flush makes one attempt whatever p.Retries says: a batch that fails
// waits in the buffer for the next flush.
func AttachHTTPWith(vm *jvm.VM, baseURL string, info ClientInfo, batchSize int, p resilience.Policy) (*RemoteSession, error) {
	rs := newRemoteSession(baseURL, batchSize, p, 0)
	body, _ := json.Marshal(wireHandshake{
		User: info.User, Hardware: info.Hardware, Arch: info.Arch,
		JVMVersion: info.JVMVersion, CodeVersion: info.CodeVersion,
	})
	var out struct {
		Session string `json:"session"`
	}
	err := rs.hop.Do(context.Background(), func(ctx context.Context) error {
		resp, err := rs.send(ctx, "/handshake", body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("monitor: handshake: %s", resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	if err != nil {
		return nil, err
	}
	rs.Session = out.Session

	vm.OnAudit = func(e jvm.AuditEvent) {
		rs.add(wireEvent{Class: e.Class, Method: e.Method, Kind: e.Kind})
	}
	vm.OnFirstUse = func(class, method, desc string) {
		rs.add(wireEvent{Class: class, Method: method + " " + desc, Kind: "note"})
	}
	return rs, nil
}

func (rs *RemoteSession) add(e wireEvent) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	rs.mu.Lock()
	rs.buf = append(rs.buf, e)
	full := len(rs.buf) >= rs.next
	rs.mu.Unlock()
	if full {
		rs.Flush()
	}
}

// newRemoteSession is a session with no console handshake yet: one
// attempt per flush, and a breaker that probes after cooldown (0 =
// resilience.Cooldown; only tests pass another).
func newRemoteSession(baseURL string, batchSize int, p resilience.Policy, cooldown time.Duration) *RemoteSession {
	if batchSize <= 0 {
		batchSize = 64
	}
	p.Retries = 0
	return &RemoteSession{base: strings.TrimRight(baseURL, "/"), hop: resilience.NewHop(p, 5*time.Second, cooldown), batchSize: batchSize, next: batchSize}
}

// Flush delivers buffered events to the console under the session's
// default per-hop deadline.
func (rs *RemoteSession) Flush() {
	rs.FlushContext(context.Background())
}

// FlushContext delivers buffered events to the console. The buffer is
// only truncated after a successful delivery: a failed POST puts the
// batch back (bounded by maxRetainedEvents) so it is retried on the
// next flush instead of being silently dropped. Monitoring fails open:
// while the console breaker is open no network attempt is made at all,
// so a dead console costs the application nothing but the (bounded)
// buffer — events past the cap are dropped oldest-first and counted. A
// flush whose caller gave up is no evidence against the console.
func (rs *RemoteSession) FlushContext(ctx context.Context) {
	rs.mu.Lock()
	if len(rs.buf) == 0 {
		rs.mu.Unlock()
		return
	}
	batch := wireBatch{Session: rs.Session, Events: rs.buf}
	rs.buf = nil
	rs.mu.Unlock()

	err := rs.hop.Do(ctx, func(ctx context.Context) error {
		span := telemetry.FromContext(ctx).StartSpan("monitor", "monitor.flush")
		defer span.End()
		return rs.post(ctx, batch)
	})
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err == nil {
		rs.next = len(rs.buf) + rs.batchSize
		return
	}
	if rs.err == nil {
		rs.err = err
	}
	// Re-queue ahead of anything buffered since, preserving event order,
	// then enforce the retention cap (oldest dropped first).
	rs.buf = append(batch.Events, rs.buf...)
	if over := len(rs.buf) - maxRetainedEvents; over > 0 {
		rs.buf = append([]wireEvent(nil), rs.buf[over:]...)
		rs.dropped.Add(int64(over))
	}
	rs.next = len(rs.buf) + rs.batchSize
}

// post is one delivery attempt.
func (rs *RemoteSession) post(ctx context.Context, batch wireBatch) error {
	body, _ := json.Marshal(batch)
	resp, err := rs.send(ctx, "/events", body)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("monitor: events: %s", resp.Status)
	}
	return nil
}

// send POSTs a JSON body to the console's path, bounded by ctx alone.
func (rs *RemoteSession) send(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rs.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tr := telemetry.FromContext(ctx); tr != nil {
		req.Header.Set(telemetry.TraceHeader, tr.ID())
	}
	return http.DefaultClient.Do(req)
}

// Close flushes any buffered events.
func (rs *RemoteSession) Close() {
	rs.Flush()
}
