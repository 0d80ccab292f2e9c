package proxy

// HopTransport, the loader's default transport and a cluster node's peer
// transport: what it puts on the wire, what it refuses to, how it reads
// an answer, and how a pooled connection the server has closed is
// retried once.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/netsim"
)

// idleConns is the number of connections t holds in its pool.
func (t *HopTransport) idleConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, conns := range t.idle {
		n += len(conns)
	}
	return n
}

// connCounter counts the connections a test server accepts.
func connCounter(srv *httptest.Server) *atomic.Int64 {
	var n atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			n.Add(1)
		}
	}
	return &n
}

// hopGet makes one GET exchange for path through rt, reading at most
// 1 MiB of answer body.
func hopGet(ctx context.Context, rt *HopTransport, base, path string) (HopAnswer, error) {
	to, err := ParseHopTarget(base)
	if err != nil {
		return HopAnswer{}, err
	}
	return rt.Exchange(ctx, to, &HopRequest{Method: http.MethodGet, Path: path,
		Header: []string{clientHeaderKey, "c", archHeaderKey, "dvm"}, Max: 1 << 20})
}

// TestHopRefusesInjection: a method, host, path, header name or header
// value that could end the request head early is refused before anything
// is written — the server sees no connection, let alone a request. The
// client ID comes from a command-line flag: one that carries a second
// header is refused at the loader.
func TestHopRefusesInjection(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	conns := connCounter(srv)
	srv.Start()
	defer srv.Close()

	if data, err := HTTPLoader(srv.URL, "c\r\nX-Evil: 1", "dvm").Load("app/A"); err == nil {
		t.Fatalf("a client ID carrying a header loaded %d bytes", len(data))
	}
	for name, base := range map[string]string{
		"host with CRLF": srv.URL + "\r\nX-Evil: 1",
		"https":          strings.Replace(srv.URL, "http:", "https:", 1),
	} {
		if _, err := ParseHopTarget(base); err == nil {
			t.Errorf("%s: target parsed, want it refused", name)
		}
	}
	to, err := ParseHopTarget(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(*HopRequest){
		"method with a space":    func(r *HopRequest) { r.Method = "GET /x HTTP/1.1\r\nX:" },
		"empty method":           func(r *HopRequest) { r.Method = "" },
		"path with CRLF":         func(r *HopRequest) { r.Path += " HTTP/1.1\r\nX-Evil: 1" },
		"header name with CRLF":  func(r *HopRequest) { r.Header = append(r.Header, "X-Evil\r\nX-More", "1") },
		"header name with colon": func(r *HopRequest) { r.Header = append(r.Header, "X:Y", "1") },
		"value with LF":          func(r *HopRequest) { r.Header[3] = "dvm\nX-Evil: 1" },
		"value with CR":          func(r *HopRequest) { r.Header[3] = "dvm\rX" },
		"value with NUL":         func(r *HopRequest) { r.Header[1] = "c\x00" },
		"name without value":     func(r *HopRequest) { r.Header = r.Header[:3] },
	} {
		req := &HopRequest{Method: http.MethodGet, Path: "/classes/app/A.class",
			Header: []string{clientHeaderKey, "c", archHeaderKey, "dvm"}, Max: 1 << 20}
		spoil(req)
		if _, err := (&HopTransport{}).Exchange(context.Background(), to, req); err == nil {
			t.Errorf("%s: request sent, want it refused", name)
		}
	}
	if n, c := requests.Load(), conns.Load(); n != 0 || c != 0 {
		t.Errorf("the server saw %d requests on %d connections, want none", n, c)
	}
}

// recorder is a dialer whose connections record the bytes their client
// writes, in order.
type recorder struct {
	mu   sync.Mutex
	sent bytes.Buffer
}

func (r *recorder) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: conn, r: r}, nil
}

type recordingConn struct {
	net.Conn
	r *recorder
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.r.mu.Lock()
	c.r.sent.Write(p)
	c.r.mu.Unlock()
	return c.Conn.Write(p)
}

// targets reads the requests the recorder's connections sent and returns
// each one's request target.
func (r *recorder) targets(t *testing.T) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for br := bufio.NewReader(bytes.NewReader(r.sent.Bytes())); ; {
		req, err := http.ReadRequest(br)
		if err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("a recorded request does not parse: %v", err)
		}
		out = append(out, req.RequestURI)
	}
}

// TestHopClassNamesMatchNetHTTP: a class name is written as the URL's
// RequestURI, so a name with $, +, % or a space reaches the front end
// exactly as it does through net/http's transport — or fails the same
// way before reaching it. Both clients dial through a recording
// connection, whose bytes must name the same targets too.
func TestHopClassNamesMatchNetHTTP(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.RequestURI+" -> "+r.URL.Path)
		mu.Unlock()
		_, _ = w.Write([]byte("class"))
	}))
	defer srv.Close()
	names := []string{"app/Outer$Inner", "app/A+B", "app/With Space", "app/Pct%41", "app/100%", "app/Q?x=1"}
	through := func(load func(rec *recorder, name string) error) []string {
		mu.Lock()
		seen = nil
		mu.Unlock()
		rec := &recorder{}
		var out []string
		for _, name := range names {
			err := load(rec, name)
			out = append(out, fmt.Sprintf("%s: err %t", name, err != nil))
		}
		mu.Lock()
		defer mu.Unlock()
		return append(append(out, seen...), rec.targets(t)...)
	}
	netHTTP := &http.Transport{}
	defer netHTTP.CloseIdleConnections()
	want := through(func(rec *recorder, name string) error {
		netHTTP.DialContext = rec.Dial
		req, err := http.NewRequest(http.MethodGet, srv.URL+classPathPrefix+classPath(name)+".class", nil)
		if err != nil {
			return err
		}
		resp, err := netHTTP.RoundTrip(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		netHTTP.CloseIdleConnections()
		return nil
	})
	got := through(func(rec *recorder, name string) error {
		_, err := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Dial: rec.Dial}).Load(name)
		return err
	})
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("through HopTransport:\n%s\nthrough net/http:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestLoaderStaleConnectionIsRetried: the server closes a connection
// idle for 50ms. A load after a 100ms pause finds its pooled connection
// closed and, with no retry budget of its own, still succeeds: the
// transport tries once more on a fresh connection.
func TestLoaderStaleConnectionIsRetried(t *testing.T) {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("class bytes"))
	}))
	srv.Config.IdleTimeout = 50 * time.Millisecond
	conns := connCounter(srv)
	srv.Start()
	defer srv.Close()
	rt := &HopTransport{}
	loader := httpLoader(srv.URL, "c", "dvm", LoaderOptions{Retries: 0}, rt)
	for i := 0; i < 3; i++ {
		if _, err := loader.Load("app/A"); err != nil {
			t.Fatalf("load %d after a %v pause: %v", i, 100*time.Millisecond, err)
		}
		if rt.idleConns() != 1 {
			t.Fatalf("load %d left %d pooled connections, want 1", i, rt.idleConns())
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Each pause outlives the idle timeout, so each load after one should
	// have found its connection closed; a loaded host may close one late.
	if n := conns.Load(); n < 2 {
		t.Errorf("the server accepted %d connections, want 3: no load met a closed connection", n)
	}
}

// TestFreshConnectionFailureIsNotRetried: a server that closes every
// connection after reading the request sees each attempt exactly once —
// only a pooled connection is worth a second try.
func TestFreshConnectionFailureIsNotRetried(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer srv.Close()
	const retries = 2
	loader := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Retries: retries, BreakerThreshold: -1})
	if data, err := loader.Load("app/A"); err == nil {
		t.Fatalf("loaded %d bytes from a server that answers nothing", len(data))
	}
	if n := requests.Load(); n != 1+retries {
		t.Errorf("the server saw %d requests for %d attempts", n, 1+retries)
	}
}

// TestHopAnswerFraming reads the answer shapes the transport accepts and
// checks which ones leave their connection pooled: a Content-Length and
// a chunked answer read to the end keep it; an answer cut short, one
// that runs to the close, one that asks for the close, an HTTP/1.0
// answer and a 1xx do not.
func TestHopAnswerFraming(t *testing.T) {
	for _, tc := range []struct {
		name, answer, body string
		fail, pooled       bool
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", "hello", false, true},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2\r\nlo\r\n0\r\nX-T: 1\r\n\r\n", "hello", false, true},
		{"empty", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", "", false, true},
		{"bare LF", "HTTP/1.1 200 OK\nContent-Length: 5\n\nhello", "hello", false, true},
		{"to the close", "HTTP/1.1 200 OK\r\n\r\nhello", "hello", false, false},
		{"connection close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello", "hello", false, false},
		{"HTTP/1.0", "HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello", "hello", false, false},
		{"short body", "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhello", "", true, false},
		{"short head", "HTTP/1.1 200 OK\r\nContent-Len", "", true, false},
		{"short chunk", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nhel", "", true, false},
		{"informational", "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", "", true, false},
		{"conflicting lengths", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!", "", true, false},
		{"gzip encoding", "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", "", true, false},
	} {
		rt, wait := pipeTransport([]byte(tc.answer))
		body, err := readHopAnswer(rt)
		rt.CloseIdleConnections() // unblocks a server still writing
		wait()
		if (err != nil) != tc.fail || !tc.fail && string(body) != tc.body {
			t.Errorf("%s: body %q, err %v; want %q, failure %t", tc.name, body, err, tc.body, tc.fail)
		}
		if pooled := rt.pooledOnce; pooled != tc.pooled {
			t.Errorf("%s: connection pooled %t, want %t", tc.name, pooled, tc.pooled)
		}
	}
}

// TestHopBodyClosedEarlyIsNotPooled: an answer whose body the exchange
// stops reading early — over its bound, declared or as it arrives —
// closes its connection, so the next exchange cannot read the bytes left
// on the wire as its answer.
func TestHopBodyClosedEarlyIsNotPooled(t *testing.T) {
	big := strings.Repeat("x", 65536)
	for name, answer := range map[string]string{
		"declared": "HTTP/1.1 200 OK\r\nContent-Length: 65536\r\n\r\n" + big,
		"chunked":  "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10000\r\n" + big + "\r\n0\r\n\r\n",
	} {
		rt, wait := pipeTransport([]byte(answer))
		to, err := ParseHopTarget("http://pipe:1")
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Exchange(context.Background(), to, &HopRequest{Method: http.MethodGet, Path: "/classes/app/Big.class", Max: 1024})
		if !errors.Is(err, ErrBodyTooLarge) {
			t.Errorf("%s: err = %v, want ErrBodyTooLarge", name, err)
		}
		if n := rt.idleConns(); n != 0 {
			t.Errorf("%s: a body left unread left %d pooled connections, want 0", name, n)
		}
		rt.CloseIdleConnections()
		wait()
	}
}

// TestHopCancelEndsTheExchange: a caller that cancels its context — no
// deadline involved — ends the exchange at once with context.Canceled,
// whether it waits for the answer's head or reads its body.
func TestHopCancelEndsTheExchange(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/body" {
			w.Header().Set("Content-Length", "10")
			_, _ = w.Write([]byte("01234"))
			w.(http.Flusher).Flush()
		}
		select {
		case <-r.Context().Done():
		case <-stall:
		}
	}))
	defer srv.Close()
	defer close(stall)
	rt := &HopTransport{}
	for _, path := range []string{"/head", "/body"} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		if _, err := hopGet(ctx, rt, srv.URL, path); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", path, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: the canceled exchange took %v", path, took)
		}
	}
	if n := rt.idleConns(); n != 0 {
		t.Errorf("canceled exchanges left %d pooled connections, want 0", n)
	}
}

// TestIdleSweepClosesDepartedHosts: pooling a connection closes the pool
// of any host whose newest idle connection is older than hopIdleTimeout —
// a peer that has left — with no goroutine to do it.
func TestIdleSweepClosesDepartedHosts(t *testing.T) {
	var closed atomic.Int64
	newServer := func() *httptest.Server {
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateClosed {
				closed.Add(1)
			}
		}
		srv.Start()
		return srv
	}
	gone, live := newServer(), newServer()
	defer gone.Close()
	defer live.Close()
	rt := &HopTransport{}
	get := func(url string) {
		t.Helper()
		if _, err := hopGet(context.Background(), rt, url, "/"); err != nil {
			t.Fatal(err)
		}
	}
	get(gone.URL)
	rt.mu.Lock()
	for _, c := range rt.idle[strings.TrimPrefix(gone.URL, "http://")] {
		c.idleAt = c.idleAt.Add(-2 * hopIdleTimeout)
	}
	rt.mu.Unlock()
	get(live.URL)
	for deadline := time.Now().Add(5 * time.Second); closed.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := closed.Load(); n != 1 {
		t.Errorf("%d connections closed at the servers, want the departed host's 1", n)
	}
	if n := rt.idleConns(); n != 1 {
		t.Errorf("%d pooled connections, want the live host's 1", n)
	}
}

// pipeTransport is a HopTransport whose every dial is one end of a
// net.Pipe; the other end reads the request head, answers with answer
// and closes. wait returns once the server side is done.
func pipeTransport(answer []byte) (rt *pipeHop, wait func()) {
	rt = &pipeHop{}
	var wg sync.WaitGroup
	rt.Dial = func(context.Context, string, string) (net.Conn, error) {
		client, server := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer server.Close()
			var head [1024]byte
			n := 0
			for !bytes.Contains(head[:n], []byte("\r\n\r\n")) && n < len(head) {
				m, err := server.Read(head[n:])
				if err != nil {
					return
				}
				n += m
			}
			_, _ = server.Write(answer)
		}()
		return client, nil
	}
	return rt, wg.Wait
}

// pipeHop records whether a connection reached the pool.
type pipeHop struct {
	HopTransport
	pooledOnce bool
}

// readHopAnswer makes one exchange through rt and returns the body.
func readHopAnswer(rt *pipeHop) ([]byte, error) {
	a, err := hopGet(context.Background(), &rt.HopTransport, "http://pipe:1", "/classes/app/A.class")
	rt.pooledOnce = rt.idleConns() > 0
	return a.Body, err
}

// hopAnswerSeeds are answers our front end and peer routes really send,
// and the ways one goes wrong.
func hopAnswerSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	record := func(h http.HandlerFunc) []byte {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/classes/app/A.class", nil))
		resp := rec.Result()
		resp.ContentLength = int64(rec.Body.Len())
		var b bytes.Buffer
		if err := resp.Write(&b); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	class := record(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = classContentType
		w.Header().Set("Content-Length", "10")
		_, _ = w.Write([]byte("\xca\xfe\xba\xbe012345"))
	})
	return [][]byte{
		class,
		class[:len(class)-4], // truncated body
		[]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n\xca\xfe\xba\xbe\r\n6\r\n012345\r\n0\r\n\r\n"),
		record(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "proxy: app/A: not found", http.StatusNotFound)
		}),
		record(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
			http.Error(w, ErrOverloaded.Error(), http.StatusTooManyRequests)
		}),
		[]byte("HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", maxHopHeaderBytes) + "\r\nContent-Length: 0\r\n\r\n"),
	}
}

// FuzzHopAnswer serves its input as the server's side of one exchange
// over net.Pipe and reads the body. Nothing panics; an exchange
// allocates within 64 × len + 64 KB; an answer the transport refuses, or
// cuts short, leaves no connection in the pool; and an answer net/http
// reads as a well-formed HTTP/1.1 Content-Length answer yields exactly
// the body net/http reads.
func FuzzHopAnswer(f *testing.F) {
	for _, seed := range hopAnswerSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, answer []byte) {
		var body []byte
		var err error
		var rt *pipeHop
		limit := uint64(64*len(answer)) + 64<<10
		cost := loadCost(limit, func() {}, func() {
			var wait func()
			rt, wait = pipeTransport(answer)
			body, err = readHopAnswer(rt)
			rt.CloseIdleConnections()
			wait()
		})
		if cost > limit {
			t.Errorf("a %d-byte answer cost %d bytes, limit %d", len(answer), cost, limit)
		}
		if err != nil && rt.pooledOnce {
			t.Errorf("a refused answer (%v) left its connection pooled", err)
		}
		want, ok, truncated := referenceAnswer(answer)
		switch {
		case truncated && err == nil:
			t.Errorf("net/http finds the answer cut short, but it read as %d bytes", len(body))
		case ok && (err != nil || !bytes.Equal(body, want)):
			t.Errorf("a well-formed answer read as %q, err %v; want %q", body, err, want)
		}
	})
}

// referenceAnswer reads answer with net/http. ok reports a well-formed
// HTTP/1.1 Content-Length answer, whose body is want; truncated reports
// an answer whose head or declared body is cut short.
func referenceAnswer(answer []byte) (want []byte, ok, truncated bool) {
	req := httptest.NewRequest(http.MethodGet, "http://pipe:1/classes/app/A.class", nil)
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(answer)), req)
	if err != nil {
		return nil, false, errors.Is(err, io.ErrUnexpectedEOF)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, errors.Is(err, io.ErrUnexpectedEOF)
	}
	head := bytes.Index(answer, []byte("\r\n\r\n"))
	ok = resp.ProtoMajor == 1 && resp.ProtoMinor == 1 && strings.Trim(resp.Status[:3], "0123456789") == "" &&
		resp.StatusCode >= 200 && resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotModified &&
		resp.TransferEncoding == nil && resp.ContentLength >= 0 &&
		head >= 0 && head < maxHopHeaderBytes-4096
	return body, ok, false
}

// serveWarm serves h with net/http's server or, if hop, with HopServer,
// until the test ends. conns counts the connections it has accepted.
func serveWarm(t *testing.T, h http.Handler, hop bool) (url string, conns func() int64) {
	if hop {
		s := &HopServer{Handler: h}
		return serveHop(t, s), func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.open) - 1) // the listener is the one more
		}
	}
	srv := httptest.NewUnstartedServer(h)
	n := connCounter(srv)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.URL, n.Load
}

// TestWarmLoadAllocations pins what a warm load of a resident class
// costs the process, client and loopback server together, over each
// server. Over net/http's server it is the class plus about 2.6 KB in 29
// allocations (51 and 4.5 KB while the client end built an http.Request
// and read the answer's head through textproto), bound at the older
// figures + 10 %; over HopServer the class plus 972 bytes in 9 (31 and
// 3.0 KB then), bound at 2 allocations and 10 % more. Under -race it only
// logs (poolsAreLossy).
func TestWarmLoadAllocations(t *testing.T) {
	const size = 4 << 10
	p := New(MapOrigin{}, Config{CacheEnabled: true})
	if p.Warm([]*Artifact{{Arch: "dvm", Class: "app/Warm", Data: bytes.Repeat([]byte{0xCA}, size), Source: ReasonReplica}}) != 1 {
		t.Fatal("could not make the class resident")
	}
	for _, tc := range []struct {
		name      string
		hop       bool
		maxAllocs uint64
		maxExtra  uint64 // bytes beyond the class
	}{{"net/http", false, 60, 5632}, {"HopServer", true, 11, 1070}} {
		t.Run(tc.name, func(t *testing.T) {
			url, _ := serveWarm(t, p.Handler(), tc.hop)
			loader := HTTPLoader(url, "c", "dvm")
			load := func() {
				if data, err := loader.Load("app/Warm"); err != nil || len(data) != size {
					t.Fatalf("load: %d bytes, err %v", len(data), err)
				}
			}
			load()
			load()
			const loads = 100
			var least runtime.MemStats
			for round := 0; round < 5; round++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for i := 0; i < loads; i++ {
					load()
				}
				runtime.ReadMemStats(&after)
				if round == 0 || after.Mallocs-before.Mallocs < least.Mallocs {
					least.Mallocs, least.TotalAlloc = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				}
			}
			allocs, bytesPer := least.Mallocs/loads, least.TotalAlloc/loads
			t.Logf("warm %d-byte load: %d allocations, %d bytes (%d beyond the class)", size, allocs, bytesPer, int64(bytesPer)-size)
			if poolsAreLossy() {
				return
			}
			if allocs > tc.maxAllocs {
				t.Errorf("a warm load makes %d allocations, want <= %d", allocs, tc.maxAllocs)
			}
			if limit := size + tc.maxExtra; bytesPer > limit {
				t.Errorf("a warm %d-byte load allocates %d bytes, want <= %d", size, bytesPer, limit)
			}
		})
	}
}

// TestWarmLoadsStartNoGoroutines: 100 loads, the first of them dialing,
// leave the process with no more goroutines than the server's one per
// connection, over either server. net/http's transport kept two of its
// own on every connection it pooled. Under -race it only logs.
func TestWarmLoadsStartNoGoroutines(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("class bytes"))
	})
	for _, hop := range []bool{false, true} {
		t.Run(map[bool]string{false: "net/http", true: "HopServer"}[hop], func(t *testing.T) {
			url, conns := serveWarm(t, h, hop)
			loader := httpLoader(url, "c", "dvm", LoaderOptions{}, &HopTransport{})
			before := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				if _, err := loader.Load("app/A"); err != nil {
					t.Fatal(err)
				}
			}
			extra := runtime.NumGoroutine() - before - int(conns())
			for deadline := time.Now().Add(time.Second); extra > 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				extra = runtime.NumGoroutine() - before - int(conns())
			}
			t.Logf("100 loads over %d connections: %d goroutines beyond the server's", conns(), extra)
			if extra > 0 && !poolsAreLossy() {
				t.Errorf("100 loads left %d goroutines beyond the server's one per connection", extra)
			}
		})
	}
}

// TestHopFaultsAtTheDialer: netsim's faulting dialer under the hop. A
// request is one write, so an exchange draws one fault however its
// connection came, pooled or fresh, and an injected reset on a pooled
// connection is not retried as a stale one. A link cut after its
// connection was pooled fails the next exchange at once, and a cleared
// link carries the one after.
func TestHopFaultsAtTheDialer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("class bytes"))
	}))
	defer srv.Close()
	ft := netsim.NewFaultyTransport(nil, netsim.FaultSpec{Seed: 3, ErrorRate: 0.3, PartialRate: 0.2})
	rt := &HopTransport{Dial: ft.Dial}
	failed := 0
	for i := 0; i < 100; i++ {
		if _, err := hopGet(context.Background(), rt, srv.URL, "/classes/app/A.class"); err != nil {
			failed++
		}
	}
	if s := ft.Stats(); s.Calls != 100 || s.Errors+s.Partials != int64(failed) || failed == 0 {
		t.Errorf("100 exchanges: %d failed, faults %+v; want 100 calls, one fault per failure", failed, s)
	}

	lf := netsim.NewLinkFaults(nil)
	rt = &HopTransport{Dial: lf.Dial}
	host := strings.TrimPrefix(srv.URL, "http://")
	if _, err := hopGet(context.Background(), rt, srv.URL, "/"); err != nil || rt.idleConns() != 1 {
		t.Fatalf("clean link: err %v, %d pooled connections", err, rt.idleConns())
	}
	lf.Cut(host)
	if _, err := hopGet(context.Background(), rt, srv.URL, "/"); !errors.Is(err, netsim.ErrInjected) {
		t.Errorf("cut link, pooled connection: err = %v, want an injected fault", err)
	}
	lf.ClearLink(host)
	if _, err := hopGet(context.Background(), rt, srv.URL, "/"); err != nil {
		t.Errorf("cleared link: %v", err)
	}
	rt.CloseIdleConnections()
}
