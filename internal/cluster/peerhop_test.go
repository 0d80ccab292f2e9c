package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/proxy"
)

// TestPeerHopStaleConnectionIsRetried: a peer whose server closes a
// connection idle for 50ms is still reached after a 100ms pause, by a hop
// that has no retry of its own: the node's transport finds its pooled
// connection closed and tries once more on a fresh one.
func TestPeerHopStaleConnectionIsRetried(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFrame(w, BatchResponse{})
	}))
	srv.Config.IdleTimeout = 50 * time.Millisecond
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{Peers: []string{srv.URL}})
	for i := 0; i < 3; i++ {
		if _, err := n.hop(context.Background(), srv.URL, BatchPath, fillRequest(n), nil); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Each pause outlives the idle timeout; a loaded host may close one
	// connection late.
	if got := conns.Load(); got < 2 {
		t.Errorf("the peer accepted %d connections, want 3: no hop met a closed connection", got)
	}
	if got := n.standing(srv.URL).linkFails; got != 0 {
		t.Errorf("link failures = %d, want 0", got)
	}
}

// TestPeerHopFreshConnectionTriedOnce: a peer that closes every
// connection after reading the request sees one request per hop.
func TestPeerHopFreshConnectionTriedOnce(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	}))
	defer srv.Close()
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{})
	if _, err := n.hop(context.Background(), srv.URL, BatchPath, fillRequest(n), nil); err == nil {
		t.Fatal("a peer that answers nothing answered")
	}
	if got := requests.Load(); got != 1 {
		t.Errorf("the peer saw %d requests for one hop, want 1", got)
	}
}

// TestUntracedBatchAllocations pins what one untraced doBatch over a
// pooled connection allocates, the node's client end and a HopServer peer
// that answers a fixed empty frame together: the request's encoder and
// staging buffer are pooled, the answer is read into the caller's
// recycled frame, and no context is derived for the exchange: 5 measured,
// bound at 6. Under -race it only logs, since sync.Pool then drops entries
// on purpose.
func TestUntracedBatchAllocations(t *testing.T) {
	answer := (&BatchResponse{}).encode()
	body := answer.bytes()
	answer.free()
	size := []string{strconv.Itoa(len(body))}
	srv := &proxy.HopServer{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header()["Content-Length"] = size
		_, _ = w.Write(body)
	})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	peer := "http://" + l.Addr().String()
	n := newBatchTestNode(t, proxy.MapOrigin{}, Config{Peers: []string{peer}})
	req, frame := fillRequest(n), proxy.GetBuffer()
	defer proxy.PutBuffer(frame)
	exchange := func() {
		if _, err := n.doBatch(context.Background(), peer, BatchPath, req, time.Second, frame); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // dials
	allocs := testing.AllocsPerRun(200, exchange)
	t.Logf("an untraced doBatch over a pooled connection: %.1f allocations, peer included", allocs)
	if info, _ := debug.ReadBuildInfo(); slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" }) {
		return
	}
	if allocs > 6 {
		t.Errorf("an untraced doBatch makes %.1f allocations, want <= %d", allocs, 6)
	}
}
