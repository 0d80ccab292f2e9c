package monitor_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dvm/internal/jvm"
	"dvm/internal/monitor"
	"dvm/internal/resilience"
	"dvm/internal/rewrite"
	"dvm/internal/telemetry"
)

func TestHTTPConsoleEndToEnd(t *testing.T) {
	coll := monitor.NewCollector()
	ts := httptest.NewServer(coll.Handler())
	defer ts.Close()

	data := buildApp(t)
	out, _ := instrument(t, data, monitor.Config{Methods: true})
	vm, err := jvm.New(jvm.MapLoader{"app/M": out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := monitor.AttachHTTPWith(vm, ts.URL, monitor.ClientInfo{User: "netuser", Arch: "dvm"}, 4, resilience.Policy{})
	if err != nil {
		t.Fatalf("AttachHTTPWith: %v", err)
	}
	if thrown, err := vm.RunMain("app/M", nil); err != nil || thrown != nil {
		t.Fatalf("%v %v", err, jvm.DescribeThrowable(thrown))
	}
	rs.Close()
	if rs.Err() != nil {
		t.Fatalf("delivery error: %v", rs.Err())
	}
	// Console saw the handshake and the events.
	if got := coll.Sessions(); len(got) != 1 || got[0] != rs.Session {
		t.Fatalf("sessions = %v", got)
	}
	info, ok := coll.Info(rs.Session)
	if !ok || info.User != "netuser" {
		t.Errorf("info = %+v", info)
	}
	if coll.EventCount() != 8 {
		t.Errorf("events = %d, want 8", coll.EventCount())
	}
	edges := coll.CallGraph(rs.Session)
	if len(edges) != 2 {
		t.Errorf("call graph = %v", edges)
	}
}

func TestHTTPConsoleBatching(t *testing.T) {
	coll := monitor.NewCollector()
	ts := httptest.NewServer(coll.Handler())
	defer ts.Close()

	vm, err := jvm.New(jvm.MapLoader{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := monitor.AttachHTTPWith(vm, ts.URL, monitor.ClientInfo{}, 100, resilience.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// Below the batch size: nothing delivered until Flush.
	vm.OnAudit(jvm.AuditEvent{Class: "a", Method: "b", Kind: "enter"})
	if coll.EventCount() != 0 {
		t.Error("event delivered before flush despite batching")
	}
	rs.Flush()
	if coll.EventCount() != 1 {
		t.Errorf("events after flush = %d", coll.EventCount())
	}
}

func TestHTTPConsoleRejectsUnknownSession(t *testing.T) {
	coll := monitor.NewCollector()
	ts := httptest.NewServer(coll.Handler())
	defer ts.Close()
	rs := &monitor.RemoteSession{}
	_ = rs
	// Handshake-less event posting must be rejected; use a raw session.
	vm, err := jvm.New(jvm.MapLoader{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := monitor.AttachHTTPWith(vm, ts.URL, monitor.ClientInfo{}, 1, resilience.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	good.Session = "sess-9999" // forged
	vm.OnAudit(jvm.AuditEvent{Class: "a", Method: "b", Kind: "enter"})
	good.Flush()
	if good.Err() == nil {
		t.Error("forged session accepted")
	}
	if coll.EventCount() != 0 {
		t.Error("forged events stored")
	}
}

var _ = rewrite.NewContext

// TestConsoleHealthzSharedSchema: the monitoring console serves the
// shared health JSON with event/batch counters and a sessions gauge.
func TestConsoleHealthzSharedSchema(t *testing.T) {
	coll := monitor.NewCollector()
	sid := coll.Handshake(monitor.ClientInfo{User: "probe"})
	if err := coll.Record(sid, "a", "m", "note"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coll.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h, err := telemetry.ParseHealth(body)
	if err != nil {
		t.Fatalf("healthz did not parse as the shared schema: %v\n%s", err, body)
	}
	if h.Service != "monitor" || h.Status != telemetry.StatusOK {
		t.Errorf("service/status = %q/%q, want monitor/ok", h.Service, h.Status)
	}
	if got := h.Counters["events_total"]; got != 1 {
		t.Errorf("events_total = %d, want 1", got)
	}
	if got := h.Gauges["sessions"]; got != 1 {
		t.Errorf("sessions gauge = %v, want 1", got)
	}
}
