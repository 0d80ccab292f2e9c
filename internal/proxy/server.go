package proxy

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HopServer is the server end of the hop protocol (DESIGN.md §8). It
// serves Handler over HTTP/1.1 keep-alive connections, one goroutine per
// connection and none per request. A request's head is parsed in place;
// its answer — status line, headers and the whole body, which gets a
// Content-Length — is staged in one recycled buffer and sent in one write
// when the handler returns. The request's context ends then, or when the
// client hangs up while the handler waits on it: the socket is watched
// only once something asks for the context's Done. A head net/http's
// server would refuse, and some it would not (DESIGN.md §8), gets 400
// (431 if over maxHopHeaderBytes) and the close. The request's and the
// answer's header maps are the connection's, reused: a handler keeps
// neither past its return.
type HopServer struct {
	Handler http.Handler
	// ReadHeaderTimeout bounds reading a request's head, and IdleTimeout a
	// kept-alive connection's wait for the next request (0 = no bound).
	ReadHeaderTimeout, IdleTimeout time.Duration

	shut atomic.Bool
	mu   sync.Mutex
	open map[io.Closer]struct{} // listeners and connections
}

const (
	hopHeadroom   = 1 << 10   // staged before an answer's body for its head
	maxDrainBytes = 256 << 10 // of a body the handler left, read to keep the connection
)

// Serve answers the connections l accepts until Close or Shutdown, and
// then returns http.ErrServerClosed. It closes l.
func (s *HopServer) Serve(l net.Listener) error {
	defer l.Close()
	if !s.track(l, true) {
		return http.ErrServerClosed
	}
	defer s.track(l, false)
	for wait := time.Duration(0); ; {
		conn, err := l.Accept()
		switch {
		case err == nil && s.track(&serverConn{s: s, conn: conn}, true):
			wait = 0
		case err == nil: // the server is shut
			conn.Close()
			return http.ErrServerClosed
		case s.shut.Load():
			return http.ErrServerClosed
		case errors.Is(err, net.ErrClosed):
			return err
		default: // out of descriptors, say: wait, as net/http does
			wait = min(max(2*wait, 5*time.Millisecond), time.Second)
			log.Printf("proxy: hop server: accept: %v; retrying in %v", err, wait)
			time.Sleep(wait)
		}
	}
}

// track adds x to (or removes it from) what Close closes, starting a
// connection's goroutine; it adds nothing once the server is shut.
func (s *HopServer) track(x io.Closer, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add = add && !s.shut.Load(); add {
		if s.open == nil {
			s.open = make(map[io.Closer]struct{})
		}
		s.open[x] = struct{}{}
		if c, ok := x.(*serverConn); ok {
			go c.serve()
		}
	} else {
		delete(s.open, x)
	}
	return add
}

// Close closes the listeners and every connection, which ends the
// context of a handler that waits on it.
func (s *HopServer) Close() error {
	s.shut.Store(true)
	s.closeIdle(true)
	return nil
}

// Shutdown closes the listeners and the idle connections, then waits for
// the others to finish their request, or for ctx to end.
func (s *HopServer) Shutdown(ctx context.Context) error {
	s.shut.Store(true)
	for wait := time.Millisecond; !s.closeIdle(false); wait = min(2*wait, 100*time.Millisecond) {
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// closeIdle closes the listeners and the idle connections (all, if all),
// and reports whether nothing was left open.
func (s *HopServer) closeIdle(all bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for x := range s.open {
		if c, ok := x.(*serverConn); all || !ok || c.state.CompareAndSwap(connIdle, connClosed) {
			x.Close()
		}
	}
	return len(s.open) == 0
}

// A connection's state: Shutdown closes it only while idle.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// serverConn is one connection, and the reader under its bufio.Reader.
type serverConn struct {
	s       *HopServer
	conn    net.Conn
	br      *bufio.Reader
	state   atomic.Int32
	remote  string
	timed   bool // the socket has a read deadline
	head    []byte
	hdr, rh http.Header // the request's and the answer's
	vals    []string    // backing of hdr's values
	out     []byte      // the answer's head

	// The watch runs only while the handler runs and its request's body has
	// been read, so that nothing else reads the socket.
	mu       sync.Mutex    // guards the rest, and the state of each reqCtx of the connection
	ex       *exchange     // the request being handled
	watched  bool          // ex's context was asked for Done
	bodyDone bool          // ex's body was read to its end, or is empty
	watch    chan struct{} // closed when the running watch returns
	aborted  bool          // stopWatch ended the running watch
	hasByte  bool          // the watch read b[0], not handed on yet
	b        [1]byte
}

func (c *serverConn) Close() error { return c.conn.Close() }

func (c *serverConn) serve() {
	s := c.s
	defer s.track(c, false)
	defer c.conn.Close()
	c.remote = c.conn.RemoteAddr().String()
	c.br, c.hdr, c.rh = bufio.NewReader(c), http.Header{}, http.Header{}
	for wait := s.ReadHeaderTimeout; ; wait = s.IdleTimeout {
		c.deadline(wait)
		if _, err := c.br.Peek(1); err != nil || !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		c.deadline(s.ReadHeaderTimeout)
		e := &exchange{c: c}
		status, err := c.readRequest(e)
		c.deadline(0)
		if status != 0 {
			text := strconv.Itoa(status) + " " + http.StatusText(status)
			_, _ = io.WriteString(c.conn, "HTTP/1.1 "+text+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+text)
		}
		// A connection closed or timed out mid-head gets no answer.
		if err != nil || status != 0 {
			return
		}
		ok := c.handle(e) && e.finish()
		c.mu.Lock()
		c.stopWatch() // once the answer is out, as net/http ends its background read
		c.mu.Unlock()
		if !ok {
			return
		}
		c.state.Store(connIdle)
		if s.shut.Load() {
			return
		}
	}
}

// deadline bounds the socket's reads to d from now (0 = no bound).
func (c *serverConn) deadline(d time.Duration) {
	if d > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(d))
	} else if c.timed {
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	c.timed = d > 0
}

// handle runs the handler; it reports false if the handler panicked.
func (c *serverConn) handle(e *exchange) (ok bool) {
	c.mu.Lock()
	c.ex, c.watched, c.bodyDone = e, false, e.req.Body == http.NoBody
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.ex = nil // starts no more watches
		c.mu.Unlock()
		e.ctx.cancel()
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				stack := make([]byte, 64<<10)
				log.Printf("proxy: hop server: panic serving %s: %v\n%s", c.remote, p, stack[:runtime.Stack(stack, false)])
			}
			e.release()
			ok = false
		}
	}()
	c.s.Handler.ServeHTTP(e, &e.req)
	return true
}

// Read reads the socket, first handing on the byte a watch read. No
// watch runs when it is called: one starts only once the body is read,
// and stops before the next head is.
func (c *serverConn) Read(p []byte) (int, error) {
	if c.hasByte && len(p) > 0 {
		c.hasByte = false
		p[0] = c.b[0]
		return 1, nil
	}
	return c.conn.Read(p)
}

// startWatch reads one byte off the socket on a goroutine of its own once
// the handler's context was asked for Done and its body is read: an error
// (the client hung up, or Close) ends the context, and a byte, the next
// request's, is kept for Read. c.mu is held.
func (c *serverConn) startWatch() {
	if !c.watched || c.ex == nil || !c.bodyDone || c.hasByte || c.watch != nil {
		return
	}
	done, x := make(chan struct{}), &c.ex.ctx
	c.watch = done
	go func() {
		n, err := c.conn.Read(c.b[:])
		c.mu.Lock()
		hangup := err != nil && !c.aborted
		c.hasByte, c.aborted, c.watch = n > 0, false, nil
		c.mu.Unlock()
		close(done)
		if hangup {
			x.cancel()
		}
	}()
}

// stopWatch ends the running watch, if any, and waits for it. c.mu is
// held, and let go while it waits.
func (c *serverConn) stopWatch() {
	if done := c.watch; done != nil {
		c.aborted = true
		_ = c.conn.SetReadDeadline(time.Unix(1, 0))
		c.mu.Unlock()
		<-done
		c.mu.Lock()
		_ = c.conn.SetReadDeadline(time.Time{})
	}
}

// readRequest reads a request's head and parses it into e. A failed read
// is err; a refused head, the status to answer it with.
func (c *serverConn) readRequest(e *exchange) (status int, err error) {
	c.head, err = readHead(c.br, c.head, true)
	switch err {
	case nil:
		return c.parse(e, string(c.head[:len(c.head)-2])), nil
	case errHeadTooLong:
		return http.StatusRequestHeaderFieldsTooLarge, nil
	case errBareLF:
		return http.StatusBadRequest, nil
	}
	return 0, err
}

// parse fills e's request from head, its lines but the blank one; one
// string holds every name and value. It returns 0, or the status a
// refused head gets.
func (c *serverConn) parse(e *exchange, head string) int {
	line, head, _ := strings.Cut(head, "\r\n")
	method, rest, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(rest, " ")
	if proto != "HTTP/1.1" && proto != "HTTP/1.0" || !validIn(method, tokenPunct) || !strings.HasPrefix(target, "/") {
		return http.StatusBadRequest
	}
	r, minor := &e.req, int(proto[7]-'0')
	e.url.Path = target // as url.ParseRequestURI makes it of such a path
	if !validIn(target, pathPunct) {
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return http.StatusBadRequest
		}
		e.url = *u
	}
	hdr, vals := c.hdr, c.vals[:0]
	if hdr == nil {
		hdr = http.Header{}
		c.hdr = hdr
	}
	clear(hdr)
	var host, cl, te, expect string // net/http keeps Host and Transfer-Encoding out of Header
	var hosts, cls, tes int
	for head != "" {
		k, v, rest, ok := nextField(head)
		if !ok {
			return http.StatusBadRequest
		}
		head, k = rest, http.CanonicalHeaderKey(k) // no allocation if it is
		switch k {
		case "Host":
			host, hosts = v, hosts+1
			continue
		case "Transfer-Encoding":
			te, tes = v, tes+1
			continue
		case "Content-Length":
			cl, cls = v, cls+1
		case "Expect":
			expect = v
		}
		if old, ok := hdr[k]; ok {
			hdr[k] = append(old, v)
		} else {
			vals = append(vals, v)
			hdr[k] = vals[len(vals)-1 : len(vals) : len(vals)]
		}
	}
	c.vals = vals
	var n uint64
	var err error
	if cls == 1 {
		n, err = strconv.ParseUint(cl, 10, 63)
	}
	if hosts > 1 || hosts == 0 && minor == 1 || hosts == 1 && !validIn(host, hostPunct) || cls > 1 || err != nil ||
		tes > 0 && (tes > 1 || cls > 0 || minor == 0 || !strings.EqualFold(te, "chunked")) {
		return http.StatusBadRequest
	}
	*r = http.Request{Method: method, URL: &e.url, Proto: proto, ProtoMajor: 1, ProtoMinor: minor, Header: hdr,
		ContentLength: int64(n), Host: host, RemoteAddr: c.remote, RequestURI: target, Body: http.NoBody,
		Close: hasToken("close", hdr["Connection"]...) || minor == 0 && !hasToken("keep-alive", hdr["Connection"]...)}
	e.body = reqBody{c: c, n: r.ContentLength}
	if tes > 0 {
		r.ContentLength, r.TransferEncoding, e.body.n, e.body.chunked = -1, []string{"chunked"}, -1, newChunkedReader(c.br)
	}
	if r.ContentLength != 0 {
		r.Body = &e.body
	}
	if expect != "" && !strings.EqualFold(expect, "100-continue") {
		return http.StatusExpectationFailed
	}
	e.body.cont = expect != "" && minor == 1 && r.Body != http.NoBody
	e.ctx.c = c
	*r = *r.WithContext(&e.ctx)
	return 0
}

// pathPunct is the punctuation url.ParseRequestURI leaves as it is in a
// path, setting no RawPath.
const pathPunct = "-._~$&+,/:;=@"

// exchange is one request and its answer, in one allocation; it is the
// handler's http.ResponseWriter.
type exchange struct {
	req      http.Request
	url      url.URL
	ctx      reqCtx
	body     reqBody
	c        *serverConn
	status   int
	declared int64   // the handler's Content-Length; -1 = none
	bp       *[]byte // hopHeadroom bytes, then the body
}

func (e *exchange) Header() http.Header { return e.c.rh }

func (e *exchange) WriteHeader(code int) {
	if e.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic("proxy: hop server: invalid WriteHeader code " + strconv.Itoa(code))
	}
	e.status, e.declared = code, -1
	if cl := e.c.rh.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			e.declared = v
		}
	}
}

func bodyAllowed(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

func (e *exchange) Write(p []byte) (int, error) {
	e.WriteHeader(http.StatusOK)
	if !bodyAllowed(e.status) {
		return 0, http.ErrBodyNotAllowed
	}
	b := e.staged()
	if e.declared >= 0 && int64(len(*b)-hopHeadroom+len(p)) > e.declared {
		return 0, http.ErrContentLength
	}
	*b = append(*b, p...)
	return len(p), nil
}

// staged returns the staging buffer, taken from the pool the first time.
func (e *exchange) staged() *[]byte {
	if e.bp == nil {
		e.bp = GetBuffer()
		*e.bp = append((*e.bp)[:0], make([]byte, hopHeadroom)...)
	}
	return e.bp
}

// finish sends the answer once the handler has returned, head and body in
// one write, and reports whether the connection may serve another
// request: not if the request or the handler asked for the close, the
// body the handler left could not be drained, or the Content-Length
// declared is not the length written.
func (e *exchange) finish() bool {
	e.WriteHeader(http.StatusOK)
	c, r, h := e.c, &e.req, e.c.rh
	buf := *e.staged()
	body := buf[hopHeadroom:]
	keep := !r.Close && h.Get("Connection") != "close" && !c.s.shut.Load() && e.drain()
	noBody := r.Method == http.MethodHead || !bodyAllowed(e.status)
	if e.declared < 0 && (!noBody || r.Method == http.MethodHead && len(body) > 0) {
		e.declared = int64(len(body))
	}
	keep = keep && (noBody || e.declared == int64(len(body)))
	b := strconv.AppendInt(append(c.out[:0], "HTTP/1.1 "...), int64(e.status), 10)
	b = append(append(append(b, ' '), cmp.Or(http.StatusText(e.status), "status code")...), "\r\n"...)
	for k, vs := range h {
		if validIn(k, tokenPunct) && k != "Connection" && k != "Content-Length" && k != "Transfer-Encoding" {
			for _, v := range vs {
				b = append(append(b, k...), ": "...)
				start := len(b)
				for b = append(b, strings.Trim(v, " \t\r\n")...); start < len(b); start++ {
					if b[start] == '\r' || b[start] == '\n' {
						b[start] = ' ' // as net/http writes a value
					}
				}
				b = append(b, "\r\n"...)
			}
		}
	}
	if e.declared >= 0 && bodyAllowed(e.status) {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), e.declared, 10), "\r\n"...)
	}
	if _, typed := h["Content-Type"]; !typed && bodyAllowed(e.status) && len(body) > 0 && h.Get("Content-Encoding") == "" {
		b = append(append(append(b, "Content-Type: "...), http.DetectContentType(body)...), "\r\n"...)
	}
	if _, dated := h["Date"]; !dated {
		b = append(time.Now().UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat), "\r\n"...)
	}
	if !keep && r.ProtoMinor == 1 {
		b = append(b, "Connection: close\r\n"...)
	} else if keep && r.ProtoMinor == 0 {
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	b = append(b, "\r\n"...)
	c.out = b
	if noBody {
		body = body[:0]
	}
	var out []byte
	if len(b) <= hopHeadroom {
		out = buf[hopHeadroom-len(b) : hopHeadroom+len(body)]
		copy(out, b)
	} else {
		out = append(b[:len(b):len(b)], body...)
	}
	_, err := c.conn.Write(out)
	e.release()
	clear(h)
	return keep && err == nil
}

// drain reads and drops what the handler left of the request body, up to
// maxDrainBytes. It reports false if it could not finish, or if a 100
// Continue was owed and never sent: the connection must then close.
func (e *exchange) drain() bool {
	b := &e.body
	switch {
	case e.req.Body == http.NoBody || b.err == io.EOF:
		return true
	case b.cont || b.err != nil || b.n > maxDrainBytes:
		return false
	}
	_, err := io.CopyN(io.Discard, b, maxDrainBytes+1)
	return err == io.EOF
}

func (e *exchange) release() {
	if e.bp != nil {
		PutBuffer(e.bp)
		e.bp = nil
	}
}

// reqBody is a request's body, Content-Length bytes or chunked, read
// through the connection's reader.
type reqBody struct {
	c       *serverConn
	n       int64 // Content-Length bytes left; -1 = chunked
	chunked io.Reader
	cont    bool  // a 100 Continue is owed before the first read
	err     error // once set, what every Read returns
}

func (b *reqBody) Read(p []byte) (n int, err error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.cont {
		b.cont = false
		if _, b.err = io.WriteString(b.c.conn, "HTTP/1.1 100 Continue\r\n\r\n"); b.err != nil {
			return 0, b.err
		}
	}
	if b.chunked != nil {
		n, err = b.chunked.Read(p)
	} else if n, err = b.c.br.Read(p[:min(int64(len(p)), b.n)]); b.n-int64(n) == 0 {
		err = io.EOF
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if b.n >= 0 {
		b.n -= int64(n)
	}
	if b.err = err; err == io.EOF {
		b.c.mu.Lock()
		b.c.bodyDone = true
		b.c.startWatch()
		b.c.mu.Unlock()
	}
	return n, err
}

func (b *reqBody) Close() error { return nil }

// reqCtx is a request's context. It ends (context.Canceled) when the
// handler returns, or when the watch sees the client hang up.
type reqCtx struct {
	c    *serverConn
	done chan struct{} // made by the first Done
	err  error
}

func (x *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *reqCtx) Value(any) any               { return nil }

func (x *reqCtx) Err() error {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	return x.err
}

// Done arms the watch, if x is the context of the request being handled:
// whoever waits on the context would know of a hang-up. A cache hit never
// asks.
func (x *reqCtx) Done() <-chan struct{} {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	if x.done == nil {
		x.done = make(chan struct{})
		if x.err != nil {
			close(x.done)
		}
	}
	if c := x.c; c.ex != nil && &c.ex.ctx == x && !c.watched {
		c.watched = true
		c.startWatch()
	}
	return x.done
}

// cancel ends the context, once.
func (x *reqCtx) cancel() {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	if x.err == nil {
		x.err = context.Canceled
		if x.done != nil {
			close(x.done)
		}
	}
}
