package proxy

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
	"net/http/httputil"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HopTransport is an HTTP/1.1 client, for http URLs only, for the two
// hops that only talk to this repository's own servers: a class loader
// to a proxy's front end and a node to its peers (DESIGN.md §8). Each
// exchange runs on the caller's goroutine, over a connection from a small
// idle pool per host; an exchange whose context ends is cut off by a
// context.AfterFunc that poisons the socket's deadline. A pooled
// connection that fails before any byte of an answer arrives (the server
// closed it while idle) is retried once on a fresh one.
type HopTransport struct {
	// MaxIdlePerHost bounds the idle connections kept per host (0 = 2,
	// < 0 = none).
	MaxIdlePerHost int

	dial func(ctx context.Context, network, addr string) (net.Conn, error) // nil = net.Dialer

	gen  atomic.Uint64 // bumped by CloseIdleConnections
	mu   sync.Mutex
	idle map[string][]*hopConn // per host, most recently pooled last
}

// defaultHop is every HTTPLoaderWith's transport unless it is given one.
var defaultHop = &HopTransport{}

const (
	// maxHopHeaderBytes bounds a request's or an answer's head, and a
	// chunked body's trailer.
	maxHopHeaderBytes = 64 << 10
	// hopIdleTimeout is how long a host's connections may stay unused.
	// They are reaped as the pool is used, by no goroutine.
	hopIdleTimeout = 90 * time.Second
)

// CloseIdleConnections closes every idle connection; one busy now is
// closed instead of pooled when its exchange ends.
func (t *HopTransport) CloseIdleConnections() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, conns := range t.idle {
		for _, c := range conns {
			c.conn.Close()
		}
	}
	t.idle = nil
	t.gen.Add(1)
}

// RoundTrip implements http.RoundTripper.
func (t *HopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	bp, err := stageRequest(req)
	if err != nil {
		return nil, err
	}
	defer PutBuffer(bp)
	ctx, addr := req.Context(), req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	t.mu.Lock()
	var c *hopConn
	if conns := t.idle[addr]; len(conns) > 0 {
		c = conns[len(conns)-1]
		conns[len(conns)-1] = nil
		t.idle[addr] = conns[:len(conns)-1]
	}
	t.mu.Unlock()
	for ; ; c = nil { // a stale pooled connection: once more on a fresh one
		fresh := c == nil
		if fresh {
			dial := t.dial
			if dial == nil {
				dial = (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext
			}
			conn, err := dial(ctx, "tcp", addr)
			if err != nil {
				return nil, hopErr(ctx, err)
			}
			c = &hopConn{t: t, addr: addr, gen: t.gen.Load(), conn: conn, lr: io.LimitedReader{R: conn}}
			c.br = bufio.NewReader(&c.lr)
			c.tp.R = c.br
			c.interrupt = func() { _ = conn.SetDeadline(time.Unix(1, 0)) }
		}
		resp, unanswered, err := c.exchange(ctx, req, *bp)
		if err == nil || fresh || !unanswered || ctx.Err() != nil {
			return resp, err
		}
	}
}

// stageRequest writes req — request line, headers, body — into a recycled
// buffer, sent in one write, and closes its body. It refuses any method,
// host, header name or value net/http would refuse: a CR or LF in one
// would let the rest pass as a header or request of its own. The path is
// the URL's RequestURI, as net/http writes it; req.Host is not consulted.
func stageRequest(req *http.Request) (*[]byte, error) {
	body := req.Body
	if body == http.NoBody {
		body = nil
	} else if body != nil {
		defer body.Close()
	}
	switch {
	case req.URL == nil || req.URL.Scheme != "http":
		return nil, fmt.Errorf("proxy: hop: unsupported URL %v (only http)", req.URL)
	case !validIn(req.Method, tokenPunct):
		return nil, fmt.Errorf("proxy: hop: invalid method %q", req.Method)
	case !validIn(req.URL.Host, hostPunct):
		return nil, fmt.Errorf("proxy: hop: invalid host %q", req.URL.Host)
	case body != nil && req.ContentLength <= 0:
		return nil, errors.New("proxy: hop: request body of unknown length")
	}
	for k, vs := range req.Header {
		if !validIn(k, tokenPunct) || slices.ContainsFunc(vs, func(v string) bool {
			return strings.IndexFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) >= 0
		}) {
			return nil, fmt.Errorf("proxy: hop: invalid header %q", k)
		}
	}
	bp := GetBuffer()
	b := append((*bp)[:0], req.Method...)
	b = append(append(append(b, ' '), req.URL.RequestURI()...), " HTTP/1.1\r\nHost: "...)
	b = append(append(b, req.URL.Host...), "\r\n"...)
	for k, vs := range req.Header {
		for _, v := range vs {
			if k != "Host" && k != "Content-Length" && k != "Transfer-Encoding" {
				b = append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
			}
		}
	}
	var n int64
	if body != nil {
		n = req.ContentLength
	}
	if n > 0 || req.Method == http.MethodPost {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), n, 10), "\r\n"...)
	}
	b = append(b, "\r\n"...)
	head := len(b)
	*bp = append(b, make([]byte, n)...)
	if body != nil {
		if _, err := io.ReadFull(body, (*bp)[head:]); err != nil {
			PutBuffer(bp)
			return nil, fmt.Errorf("proxy: hop: reading request body: %w", err)
		}
	}
	return bp, nil
}

// The punctuation net/http allows, besides letters and digits, in a token
// (a method or header name) and in a host.
const tokenPunct, hostPunct = "!#$%&'*+-.^_`|~", "!$%&'()*+,-.:;=[]_~"

func validIn(s, punct string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' || strings.IndexByte(punct, c) >= 0) {
			return false
		}
	}
	return s != ""
}

// chunkedReader reads a chunked body from br and, at its end, the
// trailer up to its blank line, at most maxHopHeaderBytes of it. Both
// ends of the hop read chunked bodies with it.
type chunkedReader struct {
	br *bufio.Reader
	cr io.Reader
}

func newChunkedReader(br *bufio.Reader) *chunkedReader {
	return &chunkedReader{br, httputil.NewChunkedReader(br)}
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	n, err := r.cr.Read(p)
	for left := maxHopHeaderBytes; err == io.EOF; {
		line, lerr := r.br.ReadSlice('\n')
		switch left -= len(line); {
		case lerr == io.EOF:
			err = io.ErrUnexpectedEOF
		case lerr != nil:
			err = lerr
		case left < 0:
			err = errors.New("proxy: hop: chunked trailer too long")
		case len(bytes.TrimRight(line, "\r\n")) == 0:
			return n, io.EOF
		}
	}
	return n, err
}

// hopErr is err as the caller should see it: once the context has ended,
// its error; and a socket timeout at or after the context's deadline (the
// dialer's, say) is that deadline, even before the context's timer fired.
func hopErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var timeout interface{ Timeout() bool }
	if d, ok := ctx.Deadline(); ok && errors.As(err, &timeout) && timeout.Timeout() && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return err
}

// put pools c, or closes it if the host's pool is full or was closed
// since c was dialed. It also closes the pools of hosts unused for longer
// than hopIdleTimeout: those of a peer that has left.
func (t *HopTransport) put(c *hopConn) {
	maxIdle, now := cmp.Or(t.MaxIdlePerHost, 2), time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.gen != t.gen.Load() || len(t.idle[c.addr]) >= maxIdle {
		c.conn.Close()
		return
	}
	if t.idle == nil {
		t.idle = make(map[string][]*hopConn)
	}
	c.idleAt = now
	t.idle[c.addr] = append(t.idle[c.addr], c)
	for addr, conns := range t.idle {
		if len(conns) > 0 && now.Sub(conns[len(conns)-1].idleAt) > hopIdleTimeout {
			for _, c := range conns {
				c.conn.Close()
			}
			delete(t.idle, addr)
		}
	}
}

// hopConn is one connection. Its reader pulls through lr, which caps what
// an answer's head may take.
type hopConn struct {
	t         *HopTransport
	addr      string
	gen       uint64 // the transport's when dialed
	conn      net.Conn
	lr        io.LimitedReader
	br        *bufio.Reader
	tp        textproto.Reader
	interrupt func() // poisons the socket's deadline: the context ended
	idleAt    time.Time
}

// exchange writes the staged request and reads the answer's head as
// net/http does, framing its body by Content-Length, chunked, or to the
// close. unanswered reports a failure before any byte of an answer came.
func (c *hopConn) exchange(ctx context.Context, req *http.Request, staged []byte) (_ *http.Response, unanswered bool, err error) {
	a := &struct { // one allocation for the answer and its body
		resp http.Response
		body hopBody
	}{body: hopBody{c: c, ctx: ctx, stop: context.AfterFunc(ctx, c.interrupt)}}
	b := &a.body
	defer func() {
		if err != nil {
			err = hopErr(ctx, err)
			b.finish(err, false)
		}
	}()
	_, err = c.conn.Write(staged)
	c.lr.N = maxHopHeaderBytes
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return nil, true, err
	}
	line, err := c.tp.ReadLine()
	if err != nil {
		return nil, false, err
	}
	proto, status, _ := strings.Cut(line, " ")
	status = strings.TrimLeft(status, " ")
	code, _, _ := strings.Cut(status, " ")
	major, minor, ok := http.ParseHTTPVersion(proto)
	sc, cerr := strconv.ParseUint(code, 10, 10)
	if !ok || major != 1 || len(code) != 3 || cerr != nil || sc < 200 { // a 1xx included
		return nil, false, fmt.Errorf("proxy: hop: unexpected status line %q", line)
	}
	hdr, err := c.tp.ReadMIMEHeader()
	if err != nil && c.lr.N == 0 {
		err = fmt.Errorf("proxy: hop: answer head over %d bytes", maxHopHeaderBytes)
	}
	if err != nil {
		return nil, false, err
	}
	c.lr.N = 1<<63 - 1
	resp := &a.resp
	*resp = http.Response{Status: status, StatusCode: int(sc), Proto: proto, ProtoMajor: major, ProtoMinor: minor,
		Header: http.Header(hdr), Body: b, Request: req, Close: minor == 0 || hasToken(hdr["Connection"], "close")}
	switch te, cl := hdr["Transfer-Encoding"], hdr["Content-Length"]; {
	case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusNotModified || req.Method == http.MethodHead:
	case te != nil:
		if len(te) != 1 || !strings.EqualFold(textproto.TrimString(te[0]), "chunked") || minor == 0 {
			return nil, false, fmt.Errorf("proxy: hop: unsupported transfer encoding %q", te)
		}
		resp.TransferEncoding, b.n, b.chunked = []string{"chunked"}, -1, newChunkedReader(c.br)
	case cl == nil:
		b.n, resp.Close = -1, true // the body ends with the connection
	default: // repeats must agree, and the value is plain decimal
		u, err := strconv.ParseUint(textproto.TrimString(cl[0]), 10, 63)
		if err != nil || slices.ContainsFunc(cl, func(v string) bool { return textproto.TrimString(v) != textproto.TrimString(cl[0]) }) {
			return nil, false, fmt.Errorf("proxy: hop: bad Content-Length %q", cl)
		}
		b.n = int64(u)
	}
	resp.ContentLength, b.keep = b.n, !resp.Close
	if b.n == 0 {
		b.finish(io.EOF, true)
		resp.Body = http.NoBody
	}
	return resp, false, nil
}

// hopBody is an answer's body: read to its end, its connection goes back
// to the pool; closed early, the connection is closed.
type hopBody struct {
	c       *hopConn // nil once finished
	ctx     context.Context
	stop    func() bool // the exchange's context.AfterFunc
	n       int64       // Content-Length bytes left; -1 = chunked or to the close
	chunked io.Reader   // a chunkedReader, when chunked
	keep    bool        // the answer lets the connection be reused
	err     error       // what Read returns once finished
}

func (b *hopBody) Read(p []byte) (n int, err error) {
	if b.c == nil {
		return 0, b.err
	}
	if b.n >= 0 && int64(len(p)) > b.n {
		p = p[:b.n]
	}
	if b.chunked == nil {
		n, err = b.c.br.Read(p)
	} else {
		n, err = b.chunked.Read(p)
	}
	if b.n > 0 {
		if b.n -= int64(n); b.n == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == io.EOF {
		b.finish(err, b.n == 0 || b.chunked != nil) // a body read to the close spent its connection
	} else if err != nil {
		err = hopErr(b.ctx, err)
		b.finish(err, false)
	}
	return n, err
}

// finish ends the exchange (later reads return err): the connection is
// pooled if reusable, the answer allows it and nothing was interrupted or
// left unread, and closed otherwise.
func (b *hopBody) finish(err error, reusable bool) {
	c := b.c
	if c == nil {
		return
	}
	b.c, b.err = nil, err
	if !b.stop() {
		reusable = false // the AfterFunc ran: the deadline is poisoned
	}
	if reusable && b.keep && c.br.Buffered() == 0 {
		c.t.put(c)
	} else {
		c.conn.Close()
	}
}

// Close ends the body: read to its end, it keeps its connection.
func (b *hopBody) Close() error {
	b.finish(http.ErrBodyReadAfterClose, b.n == 0)
	return nil
}
