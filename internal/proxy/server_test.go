package proxy

// HopServer, the server end of the hop: it answers as net/http's server
// does, refuses what net/http refuses and more, ends a request's context
// when its client hangs up, and keeps http.Server's timeouts, Shutdown
// and Close.

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveHop serves s on a loopback port until the test ends, and returns
// its URL.
func serveHop(t testing.TB, s *HopServer) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return "http://" + l.Addr().String()
}

// rawConn dials the server at url. Its reads and writes fail after 10s,
// so that a server that wrongly keeps the connection fails a test rather
// than hanging it.
func rawConn(t testing.TB, url string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// eventually polls cond for up to 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// anyConn reports whether one of s's connections satisfies cond, read
// under the connection's lock.
func anyConn(s *HopServer, cond func(c *serverConn) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for x := range s.open {
		if c, ok := x.(*serverConn); ok {
			c.mu.Lock()
			ok = cond(c)
			c.mu.Unlock()
			if ok {
				return true
			}
		}
	}
	return false
}

// routeCase is one request of a parity test. sameBody says the body does
// not change from one request to the next, so the two servers' must match.
type routeCase struct {
	name, method, path string
	header             http.Header
	body               []byte
	sameBody           bool
}

// compareServers sends each request to h under net/http's server and
// under HopServer: the status, the headers but Date and, where the body
// is stable, the body must be the same. Where it is not, neither is its
// Content-Length compared: HopServer gives every body one.
func compareServers(t *testing.T, h http.Handler, cases []routeCase) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	hop := serveHop(t, &HopServer{Handler: h})
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	answer := func(base string, rc routeCase) (int, http.Header, []byte) {
		var body io.Reader
		if rc.body != nil {
			body = bytes.NewReader(rc.body)
		}
		req, err := http.NewRequest(rc.method, base+rc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		if rc.header != nil {
			req.Header = rc.header.Clone()
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		if resp.Header.Get("Date") == "" {
			t.Errorf("%s: no Date from %s", rc.name, base)
		}
		resp.Header.Del("Date")
		if !rc.sameBody {
			resp.Header.Del("Content-Length") // net/http chunks an unsized body over 2 KB
		}
		return resp.StatusCode, resp.Header, b
	}
	for _, rc := range cases {
		ns, nh, nb := answer(ts.URL, rc)
		hs, hh, hb := answer(hop, rc)
		if ns != hs || !reflect.DeepEqual(nh, hh) {
			t.Errorf("%s: HopServer answers %d %v; net/http %d %v", rc.name, hs, hh, ns, nh)
		}
		if rc.sameBody && !bytes.Equal(nb, hb) {
			t.Errorf("%s: HopServer's body %q, net/http's %q", rc.name, hb, nb)
		}
	}
}

// TestHopServerMatchesNetHTTP runs each route of a bare proxy under both
// servers: a class hit, 404, 405, a bad name, 429 with Retry-After under
// admission, /healthz and /metrics.
func TestHopServerMatchesNetHTTP(t *testing.T) {
	p := New(MapOrigin{}, Config{CacheEnabled: true})
	if p.Warm([]*Artifact{{Arch: "dvm", Class: "app/Warm", Data: bigClass(t, "app/Warm", 3000), Source: ReasonReplica}}) != 1 {
		t.Fatal("could not make the class resident")
	}
	dvm := http.Header{clientHeaderKey: {"c"}, archHeaderKey: {"dvm"}}
	compareServers(t, p.Handler(), []routeCase{
		{"class hit", http.MethodGet, "/classes/app/Warm.class", dvm, nil, true},
		{"HEAD of a class", http.MethodHead, "/classes/app/Warm.class", dvm, nil, true},
		{"not found", http.MethodGet, "/classes/app/Missing.class", dvm, nil, true},
		{"method not allowed", http.MethodPost, "/classes/app/Warm.class", dvm, []byte("x"), true},
		{"bad name", http.MethodGet, "/classes/.class", dvm, nil, true},
		{"escaped name", http.MethodGet, "/classes/app/W%61rm.class", dvm, nil, true},
		{"healthz", http.MethodGet, "/healthz", nil, nil, false},
		{"metrics", http.MethodGet, "/metrics", nil, nil, false},
	})

	// Admission full: one flight holds the only slot, one waits in the
	// one-place queue, so any other key is shed.
	gate := gatedOrigin{MapOrigin{"app/A": bigClass(t, "app/A", 64), "app/B": bigClass(t, "app/B", 64)}, make(chan struct{})}
	full := New(gate, Config{MaxQueue: 1, MaxConcurrent: 1, QueueDeadline: time.Minute})
	var wg sync.WaitGroup
	for _, class := range []string{"app/A", "app/B"} {
		wg.Add(1)
		go func(class string) {
			defer wg.Done()
			_, _ = full.Request(context.Background(), Lookup{Client: class, Arch: "dvm", Class: class})
		}(class)
	}
	defer wg.Wait()
	defer close(gate.open)
	eventually(t, "the admission queue to fill", func() bool { return full.Health().Gauges["queue_depth"] == 1 })
	compareServers(t, full.Handler(), []routeCase{{"shed", http.MethodGet, "/classes/app/C.class", dvm, nil, true}})
}

// TestLoaderEscapesClassNames: JVMS §4.2.1 lets a class name hold ?, #
// and %. Each such name, and a plain one, loads through HTTPLoader, over
// net/http's server and over HopServer, as the very bytes the in-process
// pipeline makes of it; unescaped, app/Pct%41 would be asked for as
// app/PctA. A name with nothing to escape costs no allocation.
func TestLoaderEscapesClassNames(t *testing.T) {
	names := []string{"app/Odd?Name", "app/Hash#1", "app/Pct%41", "app/Plain$Inner"}
	origin := MapOrigin{}
	for _, name := range names {
		origin[name] = bigClass(t, name, 64)
	}
	p := New(origin, Config{CacheEnabled: true})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	for _, url := range []string{ts.URL, serveHop(t, &HopServer{Handler: p.Handler()})} {
		loader := HTTPLoader(url, "c", "dvm")
		for _, name := range names {
			got, err := loader.Load(name)
			if want := reference(t, origin, name); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s from %s: %d bytes, err %v; want the pipeline's %d", name, url, len(got), err, len(want))
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = classPath("app/Plain$Inner") }); n != 0 {
		t.Errorf("a name with nothing to escape costs %v allocations", n)
	}
}

// hopRefusals are heads HopServer refuses, with the status it answers:
// each refusal of net/http's server, and those it makes beyond it.
var hopRefusals = []struct {
	name, head string
	status     int
}{
	{"no version", "GET /x\r\nHost: h\r\n\r\n", 400},
	{"two spaces", "GET  /x HTTP/1.1\r\nHost: h\r\n\r\n", 400},
	{"HTTP/2.0", "GET /x HTTP/2.0\r\nHost: h\r\n\r\n", 400},
	{"HTTP/1.2", "GET /x HTTP/1.2\r\nHost: h\r\n\r\n", 400},
	{"absolute target", "GET http://h/x HTTP/1.1\r\nHost: h\r\n\r\n", 400},
	{"bad escape", "GET /a%zz HTTP/1.1\r\nHost: h\r\n\r\n", 400},
	{"method not a token", "G(T /x HTTP/1.1\r\nHost: h\r\n\r\n", 400},
	{"name not a token", "GET /x HTTP/1.1\r\nHost: h\r\nX Y: 1\r\n\r\n", 400},
	{"space before the colon", "GET /x HTTP/1.1\r\nHost: h\r\nX-Y : 1\r\n\r\n", 400},
	{"no colon", "GET /x HTTP/1.1\r\nHost: h\r\nX-Y\r\n\r\n", 400},
	{"control byte in a value", "GET /x HTTP/1.1\r\nHost: h\r\nX-Y: a\x01b\r\n\r\n", 400},
	{"bare LF", "GET /x HTTP/1.1\r\nHost: h\r\nX-Y: a\nX-Z: b\r\n\r\n", 400},
	{"bare CR", "GET /x HTTP/1.1\r\nHost: h\r\nX-Y: a\rX-Z: b\r\n\r\n", 400},
	{"obs-fold", "GET /x HTTP/1.1\r\nHost: h\r\nX-Y: a\r\n b\r\n\r\n", 400},
	{"no Host", "GET /x HTTP/1.1\r\nX-Y: 1\r\n\r\n", 400},
	{"two Hosts", "GET /x HTTP/1.1\r\nHost: h\r\nHost: i\r\n\r\n", 400},
	{"bad Host", "GET /x HTTP/1.1\r\nHost: h/i\r\n\r\n", 400},
	{"Transfer-Encoding and Content-Length", "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n", 400},
	{"gzip coding", "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip\r\n\r\n", 400},
	{"gzip, chunked", "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip, chunked\r\n\r\n", 400},
	{"two codings", "POST /x HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n", 400},
	{"chunked HTTP/1.0", "POST /x HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n", 400},
	{"two Content-Lengths", "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd", 400},
	{"signed Content-Length", "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: +3\r\n\r\nabc", 400},
	{"empty Content-Length", "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: \r\n\r\n", 400},
	{"unknown expectation", "GET /x HTTP/1.1\r\nHost: h\r\nExpect: magic\r\n\r\n", 417},
	{"head over the bound", "GET /x HTTP/1.1\r\nHost: h\r\nX-Long: " + strings.Repeat("a", maxHopHeaderBytes) + "\r\n\r\n", 431},
}

// parseHead runs the head reader over in.
func parseHead(in []byte) (*exchange, int, error) {
	c := &serverConn{br: bufio.NewReader(bytes.NewReader(in))}
	e := &exchange{c: c, declared: -1}
	status, err := c.readRequest(e)
	return e, status, err
}

// TestHopServerRefusals: each refused head gets its status, and over a
// connection the answer ends it.
func TestHopServerRefusals(t *testing.T) {
	for _, tc := range hopRefusals {
		if _, status, err := parseHead([]byte(tc.head)); status != tc.status || err != nil {
			t.Errorf("%s: status %d, err %v; want %d", tc.name, status, err, tc.status)
		}
	}
	url := serveHop(t, &HopServer{Handler: http.NotFoundHandler()})
	conn := rawConn(t, url)
	io.WriteString(conn, "GET /x HTTP/1.1\r\n\r\nGET /x HTTP/1.1\r\nHost: h\r\n\r\n")
	all, _ := io.ReadAll(conn)
	if !bytes.HasPrefix(all, []byte("HTTP/1.1 400 Bad Request\r\n")) || bytes.Count(all, []byte("HTTP/1.1")) != 1 {
		t.Errorf("a refused request, then a good one, read %q; want one 400 and the close", all)
	}
}

// FuzzHopRequest reads its input as a request head. The reader never
// panics and allocates within 64 × len + 64 KB, and a head it accepts
// http.ReadRequest accepts too, with the same method, target, path,
// query, Host, Content-Length and headers: it may be stricter than
// net/http, never looser.
func FuzzHopRequest(f *testing.F) {
	for _, tc := range hopRefusals {
		f.Add([]byte(tc.head))
	}
	for _, head := range []string{
		"GET /classes/app/A.class HTTP/1.1\r\nHost: 127.0.0.1:8642\r\nX-Dvm-Client: c\r\nX-Dvm-Arch: dvm\r\nAccept-Encoding: identity\r\n\r\n",
		"POST /peer/v2/batch HTTP/1.1\r\nHost: h\r\nContent-Type: application/x-dvm-frame\r\nContent-Length: 5\r\n\r\nframe",
		"POST /peer/v2/batch HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n5\r\nframe\r\n0\r\n\r\n",
		"GET /classes/app/Pct%2541.class?x=1 HTTP/1.0\r\nConnection: keep-alive\r\nx-lower-case: 1\r\nX-Dup: a\r\nX-Dup: b\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nHost: h\r\nPragma: no-cache\r\nX-Tab:\ta b\t\r\n\r\n",
	} {
		f.Add([]byte(head))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var e *exchange
		var status int
		var err error
		limit := uint64(64*len(in)) + 64<<10
		if cost := loadCost(limit, func() {}, func() { e, status, err = parseHead(in) }); cost > limit {
			t.Errorf("a %d-byte head cost %d bytes, limit %d", len(in), cost, limit)
		}
		if err != nil || status != 0 {
			return
		}
		ref, rerr := http.ReadRequest(bufio.NewReader(bytes.NewReader(in)))
		if rerr != nil {
			t.Fatalf("accepted a head net/http refuses (%v): %q", rerr, in)
		}
		r := &e.req
		if r.Method != ref.Method || r.RequestURI != ref.RequestURI || r.URL.Path != ref.URL.Path || r.URL.RawQuery != ref.URL.RawQuery ||
			r.Host != ref.Host || r.ContentLength != ref.ContentLength || r.Close != ref.Close {
			t.Errorf("read %s %q (path %q, query %q) host %q length %d close %t; net/http: %s %q (path %q, query %q) host %q length %d close %t",
				r.Method, r.RequestURI, r.URL.Path, r.URL.RawQuery, r.Host, r.ContentLength, r.Close,
				ref.Method, ref.RequestURI, ref.URL.Path, ref.URL.RawQuery, ref.Host, ref.ContentLength, ref.Close)
		}
		want := ref.Header.Clone()
		delete(want, "Host") // net/http's server keeps it in Host only, as HopServer does
		if _, ok := r.Header["Cache-Control"]; !ok {
			delete(want, "Cache-Control") // ReadRequest's, for a Pragma: no-cache
		}
		if !reflect.DeepEqual(map[string][]string(r.Header), map[string][]string(want)) {
			t.Errorf("headers %v; net/http's %v", r.Header, want)
		}
	})
}

// TestHopServerDisconnectAbandonsFlight: the only client of a miss held
// at the origin hangs up. The watch sees it and ends the request's
// context, so the flight is abandoned: counted in flights_abandoned_total,
// not in fetch_errors_total.
func TestHopServerDisconnectAbandonsFlight(t *testing.T) {
	gate := gatedOrigin{MapOrigin{"app/Gone": bigClass(t, "app/Gone", 64)}, make(chan struct{})}
	p := New(gate, Config{CacheEnabled: true})
	conn := rawConn(t, serveHop(t, &HopServer{Handler: p.Handler()}))
	io.WriteString(conn, "GET /classes/app/Gone.class HTTP/1.1\r\nHost: h\r\nX-Dvm-Arch: dvm\r\n\r\n")
	waitWaiters(t, p, 1)
	conn.Close()
	eventually(t, "the flight to be abandoned", func() bool { return p.Stats().FlightsAbandoned == 1 })
	if s := p.Stats(); s.FetchErrors != 0 {
		t.Errorf("fetch_errors_total = %d after a hang-up, want 0", s.FetchErrors)
	}
}

// TestHopServerServesPipelinedRequest: a client sends its second request
// while the first waits on a miss. The watch reads the second's first
// byte and hands it over, so both are answered, in order.
func TestHopServerServesPipelinedRequest(t *testing.T) {
	origin := MapOrigin{"app/Slow": bigClass(t, "app/Slow", 64)}
	gate := gatedOrigin{origin, make(chan struct{})}
	p := New(gate, Config{CacheEnabled: true})
	warm := bigClass(t, "app/Warm", 64)
	p.Warm([]*Artifact{{Arch: "dvm", Class: "app/Warm", Data: warm, Source: ReasonReplica}})
	s := &HopServer{Handler: p.Handler()}
	conn := rawConn(t, serveHop(t, s))
	io.WriteString(conn, "GET /classes/app/Slow.class HTTP/1.1\r\nHost: h\r\nX-Dvm-Arch: dvm\r\n\r\n")
	waitWaiters(t, p, 1)
	io.WriteString(conn, "GET /classes/app/Warm.class HTTP/1.1\r\nHost: h\r\nX-Dvm-Arch: dvm\r\n\r\n")
	eventually(t, "the watch to read a byte", func() bool { return anyConn(s, func(c *serverConn) bool { return c.hasByte }) })
	close(gate.open)
	br := bufio.NewReader(conn)
	for _, want := range [][]byte{reference(t, origin, "app/Slow"), warm} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || err != nil || !bytes.Equal(body, want) {
			t.Fatalf("status %d, %d bytes, err %v; want 200 and %d bytes", resp.StatusCode, len(body), err, len(want))
		}
	}
}

// closedWithin reads conn, which must be closed with nothing sent, no
// sooner than least and within five seconds.
func closedWithin(t *testing.T, r io.Reader, conn net.Conn, least time.Duration) {
	t.Helper()
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	n, err := r.Read(make([]byte, 1))
	if took := time.Since(start); n != 0 || err != io.EOF || took < least {
		t.Errorf("read %d bytes, err %v, after %v; want the close, no sooner than %v", n, err, took, least)
	}
}

// TestHopServerReadHeaderTimeout: a head that stalls is cut at
// ReadHeaderTimeout, with no answer.
func TestHopServerReadHeaderTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	conn := rawConn(t, serveHop(t, &HopServer{Handler: http.NotFoundHandler(), ReadHeaderTimeout: timeout}))
	start := time.Now()
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: h\r\n")
	closedWithin(t, conn, conn, timeout-time.Since(start)-5*time.Millisecond)
}

// TestHopServerIdleTimeout: a kept-alive connection is closed once it has
// waited IdleTimeout for its next request.
func TestHopServerIdleTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	conn := rawConn(t, serveHop(t, &HopServer{Handler: http.NotFoundHandler(), IdleTimeout: timeout}))
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	closedWithin(t, br, conn, timeout-10*time.Millisecond)
}

// TestHopServerShutdownLetsRequestFinish: Shutdown closes an idle
// connection at once, refuses new ones and returns only once the request
// held in its handler has been answered.
func TestHopServerShutdownLetsRequestFinish(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	s := &HopServer{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-gate
		io.WriteString(w, "finished")
	})}
	url := serveHop(t, s)
	idle := rawConn(t, url)
	answer := make(chan string, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			answer <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		answer <- string(body)
	}()
	<-entered
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	closedWithin(t, idle, idle, 0)
	eventually(t, "new connections to be refused", func() bool {
		conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err == nil {
			conn.Close()
		}
		return err != nil
	})
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v while a request was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if got := <-answer; got != "finished" {
		t.Errorf("the held request read %q", got)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown = %v", err)
	}
}

// TestHopServerCloseEndsWaitingHandler: Close ends the context of a
// handler that waits on it.
func TestHopServerCloseEndsWaitingHandler(t *testing.T) {
	ended := make(chan error, 1)
	s := &HopServer{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		ended <- r.Context().Err()
	})}
	conn := rawConn(t, serveHop(t, s))
	io.WriteString(conn, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
	eventually(t, "the handler to wait", func() bool { return anyConn(s, func(c *serverConn) bool { return c.watch != nil }) })
	s.Close()
	select {
	case err := <-ended:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("the handler's context ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the handler waiting")
	}
}

// TestHopServerFraming sends requests over one connection each and checks
// the answer and whether the connection is kept: chunked and
// 100-continue bodies, HEAD, sniffing, a short body, an unread body, a
// long undeclared body, HTTP/1.0, a panic.
func TestHopServerFraming(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("/ignore", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ignored") })
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		io.WriteString(w, "12345")
	})
	mux.HandleFunc("/long", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 3; i++ {
			io.WriteString(w, strings.Repeat("x", 1500))
		}
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) })
	url := serveHop(t, &HopServer{Handler: mux})
	big := strings.Repeat("b", maxDrainBytes+1)
	for _, tc := range []struct {
		name, request, method string
		status                int
		body                  string
		header                http.Header // must be in the answer
		kept, saysClose       bool        // the connection is kept; the answer says Connection: close
	}{
		{"chunked body", "POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\nX-T: 1\r\n\r\n", "", 200, "abcde",
			http.Header{"Content-Length": {"5"}, "Content-Type": {"text/plain; charset=utf-8"}}, true, false},
		{"HEAD", "HEAD /ignore HTTP/1.1\r\nHost: h\r\n\r\n", http.MethodHead, 200, "", http.Header{"Content-Length": {"7"}}, true, false},
		{"short body", "GET /short HTTP/1.1\r\nHost: h\r\n\r\n", "", 200, "", http.Header{"Content-Length": {"10"}}, false, true},
		{"unread body", "POST /ignore HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello", "", 200, "ignored", nil, true, false},
		{"unread body over the bound", "POST /ignore HTTP/1.1\r\nHost: h\r\nContent-Length: " + fmt.Sprint(len(big)) + "\r\n\r\n" + big, "", 200, "ignored",
			nil, false, true},
		{"long undeclared body", "GET /long HTTP/1.1\r\nHost: h\r\n\r\n", "", 200, strings.Repeat("x", 4500), http.Header{"Content-Length": {"4500"}}, true, false},
		{"HTTP/1.0", "GET /ignore HTTP/1.0\r\n\r\n", "", 200, "ignored", nil, false, false},
		{"HTTP/1.0 keep-alive", "GET /ignore HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", "", 200, "ignored", http.Header{"Connection": {"keep-alive"}}, true, false},
		{"Connection: close", "GET /ignore HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n", "", 200, "ignored", nil, false, true},
	} {
		conn := rawConn(t, url)
		go io.WriteString(conn, tc.request)
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, &http.Request{Method: cmp.Or(tc.method, http.MethodGet)})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		if tc.name == "short body" {
			body, err = nil, nil // the close cuts it short
		}
		if resp.StatusCode != tc.status || err != nil || string(body) != tc.body {
			t.Errorf("%s: %d %q, err %v; want %d %q", tc.name, resp.StatusCode, body, err, tc.status, tc.body)
		}
		for k, v := range tc.header {
			if got := resp.Header[k]; !reflect.DeepEqual(got, v) {
				t.Errorf("%s: %s %q, want %q", tc.name, k, got, v)
			}
		}
		if resp.Close != tc.saysClose {
			t.Errorf("%s: the answer says close %t, want %t", tc.name, resp.Close, tc.saysClose)
		}
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, err = br.ReadByte()
		if kept := errors.Is(err, os.ErrDeadlineExceeded); kept != tc.kept {
			t.Errorf("%s: connection kept %t (%v), want %t", tc.name, kept, err, tc.kept)
		}
	}

	// 100-continue: the interim answer comes before the body is sent.
	conn := rawConn(t, url)
	io.WriteString(conn, "POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n")
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); line != "HTTP/1.1 100 Continue\r\n" || err != nil {
		t.Fatalf("before the body: %q, %v", line, err)
	}
	br.ReadString('\n')
	io.WriteString(conn, "hello")
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("after the body: %v, %v", resp, err)
	} else if body, _ := io.ReadAll(resp.Body); string(body) != "hello" {
		t.Errorf("echoed %q", body)
	}

	// A handler aborted with http.ErrAbortHandler closes its connection,
	// answering nothing.
	conn = rawConn(t, url)
	io.WriteString(conn, "GET /panic HTTP/1.1\r\nHost: h\r\n\r\n")
	closedWithin(t, conn, conn, 0)
}
