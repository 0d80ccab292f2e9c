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
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// HopTransport is the client end of the hop (DESIGN.md §8): HTTP/1.1
// exchanges, for http targets only, on the two hops that only talk to
// this repository's own servers, a class loader to a front end and a node
// to its peers. An exchange runs on the caller's goroutine, over a
// connection from a small idle pool per host, and reads its answer whole.
// A pooled connection the server closed while idle is retried once on a
// fresh one.
type HopTransport struct {
	// MaxIdlePerHost bounds the idle connections kept per host (0 = 2,
	// < 0 = none).
	MaxIdlePerHost int
	// Dial opens the transport's connections (nil = a net.Dialer). It is
	// the hop's one seam to the network: a faulting dialer
	// (netsim.LinkFaults) plugs in here.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	gen  atomic.Uint64 // bumped by CloseIdleConnections
	mu   sync.Mutex
	idle map[string][]*hopConn // per host, most recently pooled last
}

// defaultHop is every HTTPLoaderWith's transport unless it is given a
// dialer.
var defaultHop = &HopTransport{}

const (
	// maxHopHeaderBytes bounds a request's or an answer's head, and a
	// chunked body's trailer.
	maxHopHeaderBytes = 64 << 10
	// hopIdleTimeout is how long a host's connections may stay unused.
	// They are reaped as the pool is used, by no goroutine.
	hopIdleTimeout = 90 * time.Second
)

// HopTarget is a server exchanges go to: an http base URL, parsed once.
type HopTarget struct {
	addr   string // host:port, as dialed
	host   string // the Host header
	prefix string // the URL's path, ahead of each exchange's
}

// ParseHopTarget parses an http base URL such as "http://127.0.0.1:8642".
func ParseHopTarget(base string) (*HopTarget, error) {
	u, err := url.Parse(base)
	switch {
	case err != nil:
		return nil, fmt.Errorf("proxy: hop: %w", err)
	case u.Scheme != "http" || u.RawQuery != "" || u.Fragment != "":
		return nil, fmt.Errorf("proxy: hop: unsupported URL %q (only http)", base)
	case !validIn(u.Host, hostPunct):
		return nil, fmt.Errorf("proxy: hop: invalid host %q", u.Host)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &HopTarget{addr: addr, host: u.Host, prefix: strings.TrimSuffix(u.EscapedPath(), "/")}, nil
}

// HopRequest is what one exchange sends, and how it reads the answer.
type HopRequest struct {
	Method string
	// Path is the escaped path, after the target's own.
	Path string
	// Header holds name, value pairs, written as they are.
	Header []string
	// Body is sent run after run, with its Content-Length.
	Body [][]byte
	// Timeout bounds the exchange together with the context's deadline:
	// the socket's deadline is the earlier (0 = the context's alone).
	Timeout time.Duration
	// Max bounds the answer's body; Into is storage it is read into as
	// far as it reaches (nil = a buffer of its own, exactly the body).
	Max  int
	Into []byte
}

// HopAnswer is an exchange's answer: its status, its header fields and
// its whole body.
type HopAnswer struct {
	Status int
	Body   []byte
	fields string // the head's lines after the status line
}

// Header returns the first value of the answer's field name, in any
// case, or "".
func (a *HopAnswer) Header(name string) string {
	for rest := a.fields; rest != ""; {
		k, v, r, ok := nextField(rest)
		if ok && strings.EqualFold(k, name) {
			return v
		}
		rest = r
	}
	return ""
}

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

// Exchange sends req to to and reads the answer. The socket's deadline is
// the earlier of ctx's and req.Timeout from now; a timeout at it is
// context.DeadlineExceeded, and a ctx that ends cuts the exchange off with
// its error. Only a ctx that can end (Done is not nil) is watched.
func (t *HopTransport) Exchange(ctx context.Context, to *HopTarget, req *HopRequest) (HopAnswer, error) {
	bp, err := stageRequest(to, req)
	if err != nil {
		return HopAnswer{}, err
	}
	defer PutBuffer(bp)
	deadline, _ := ctx.Deadline()
	if req.Timeout > 0 {
		if d := time.Now().Add(req.Timeout); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	t.mu.Lock()
	var c *hopConn
	if conns := t.idle[to.addr]; len(conns) > 0 {
		c = conns[len(conns)-1]
		conns[len(conns)-1] = nil
		t.idle[to.addr] = conns[:len(conns)-1]
	}
	t.mu.Unlock()
	for ; ; c = nil {
		fresh := c == nil
		if fresh {
			if c, err = t.dial(ctx, to.addr, deadline); err != nil {
				return HopAnswer{}, hopErr(ctx, err, deadline)
			}
		}
		// A pooled connection the server closed while it was idle fails
		// unanswered, at the end of its stream, reset or with a broken pipe:
		// once more on a fresh one.
		a, unanswered, err := c.exchange(ctx, req, *bp, deadline)
		if err == nil || fresh || !unanswered || !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, syscall.EPIPE) {
			return a, err
		}
	}
}

// dial opens a connection to addr, bounded by deadline if it is set.
func (t *HopTransport) dial(ctx context.Context, addr string, deadline time.Time) (*hopConn, error) {
	dial := t.Dial
	if dial == nil {
		dial = (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	conn, err := dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &hopConn{t: t, addr: addr, gen: t.gen.Load(), conn: conn, br: bufio.NewReader(conn),
		cut: cancelHook{fn: func() { _ = conn.SetDeadline(time.Unix(1, 0)) }}}, nil
}

// stageRequest writes req — request line, headers, body — into a recycled
// buffer, sent in one write. It refuses any method, path, header name or
// value net/http would refuse: a CR or LF in one would let the rest pass
// as a header or request of its own.
func stageRequest(to *HopTarget, req *HopRequest) (*[]byte, error) {
	switch {
	case !validIn(req.Method, tokenPunct):
		return nil, fmt.Errorf("proxy: hop: invalid method %q", req.Method)
	case !strings.HasPrefix(req.Path, "/") || strings.IndexFunc(req.Path, func(r rune) bool { return r <= ' ' || r == 0x7f }) >= 0:
		return nil, fmt.Errorf("proxy: hop: invalid path %q", req.Path)
	case len(req.Header)%2 != 0:
		return nil, errors.New("proxy: hop: a header name without its value")
	}
	for i := 0; i < len(req.Header); i += 2 {
		if !validIn(req.Header[i], tokenPunct) || strings.ContainsFunc(req.Header[i+1], isCTL) {
			return nil, fmt.Errorf("proxy: hop: invalid header %q", req.Header[i])
		}
	}
	n := 0
	for _, run := range req.Body {
		n += len(run)
	}
	bp := GetBuffer()
	b := slices.Grow((*bp)[:0], 512+n) // a recycled buffer may be empty: one growth, not one per field
	b = append(append(append(b, req.Method...), ' '), to.prefix...)
	b = append(append(b, req.Path...), " HTTP/1.1\r\nHost: "...)
	b = append(append(b, to.host...), "\r\n"...)
	for i := 0; i < len(req.Header); i += 2 {
		b = append(append(append(append(b, req.Header[i]...), ": "...), req.Header[i+1]...), "\r\n"...)
	}
	if n > 0 || req.Method == http.MethodPost {
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10), "\r\n"...)
	}
	b = append(b, "\r\n"...)
	for _, run := range req.Body {
		b = append(b, run...)
	}
	*bp = b
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

// isCTL reports a control character a header value may not hold.
func isCTL(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }

// Errors of readHead.
var (
	errHeadTooLong = fmt.Errorf("proxy: hop: head over %d bytes", maxHopHeaderBytes)
	errBareLF      = errors.New("proxy: hop: line ends in a bare LF")
)

// readHead reads a head — its lines up to the blank one, at most
// maxHopHeaderBytes — from br into buf's storage, and returns it, blank
// line included. Both ends of the hop read a head with it. strict refuses
// a line that ends in a bare LF (the server end); otherwise, as net/http's
// client, a bare LF ends a line too.
func readHead(br *bufio.Reader, buf []byte, strict bool) ([]byte, error) {
	head := buf[:0]
	for {
		line, err := br.ReadSlice('\n')
		head = append(head, line...)
		switch {
		case len(head) > maxHopHeaderBytes:
			return head, errHeadTooLong
		case err == bufio.ErrBufferFull:
		case err != nil:
			return head, err
		case strict && (len(head) < 2 || head[len(head)-2] != '\r'):
			return head, errBareLF
		case len(head) == 2 && head[0] == '\r' || bytes.HasSuffix(head, []byte("\n\r\n")),
			!strict && (len(head) == 1 || bytes.HasSuffix(head, []byte("\n\n"))):
			return head, nil
		}
	}
}

// nextField cuts head's first line off as a header field: its name, and
// its value trimmed of spaces and tabs. ok is false if the line is no
// field: no colon, a name that is no token, or a control byte in the value.
func nextField(head string) (name, value, rest string, ok bool) {
	line, rest, _ := strings.Cut(head, "\n")
	name, value, ok = strings.Cut(strings.TrimSuffix(line, "\r"), ":")
	value = strings.Trim(value, " \t")
	return name, value, rest, ok && validIn(name, tokenPunct) && !strings.ContainsFunc(value, isCTL)
}

// hasToken reports whether the comma-separated values vs hold tok, in
// any case.
func hasToken(tok string, vs ...string) bool {
	for _, v := range vs {
		for v != "" {
			var t string
			if t, v, _ = strings.Cut(v, ","); strings.EqualFold(strings.Trim(t, " \t"), tok) {
				return true
			}
		}
	}
	return false
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
// its error; and a socket timeout at or after the exchange's deadline is
// context.DeadlineExceeded. When that deadline was the context's, the
// socket may time out before the context's timer fires: hopErr waits for
// it, so that the caller, asking the context, knows it gave up.
func hopErr(ctx context.Context, err error, deadline time.Time) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var timeout interface{ Timeout() bool }
	if deadline.IsZero() || !errors.As(err, &timeout) || !timeout.Timeout() || time.Now().Before(deadline) {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !d.After(deadline) && ctx.Done() != nil {
		<-ctx.Done()
		return ctx.Err()
	}
	return context.DeadlineExceeded
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

// hopConn is one connection.
type hopConn struct {
	t      *HopTransport
	addr   string
	gen    uint64 // the transport's when dialed
	conn   net.Conn
	br     *bufio.Reader
	head   []byte     // the last answer's head, its storage reused
	cut    cancelHook // poisons the socket's deadline: the context ended
	idleAt time.Time
}

// exchange writes the staged request and reads the answer as net/http
// does, framing its body by Content-Length, chunked, or to the close; the
// connection is then pooled if the answer allows it and was read whole,
// and closed otherwise. unanswered reports a failure before any byte of
// an answer came.
func (c *hopConn) exchange(ctx context.Context, req *HopRequest, staged []byte, deadline time.Time) (a HopAnswer, unanswered bool, err error) {
	keep := false
	if err = c.conn.SetDeadline(deadline); err != nil {
		c.conn.Close()
		return a, true, hopErr(ctx, err, deadline)
	}
	// Set after the deadline, which the cut overrides; a flight runs it itself.
	var stop func() bool
	f, _ := ctx.(*flight)
	if f != nil && !f.hook(&c.cut) {
		c.cut.fn()
	} else if f == nil && ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.cut.fn)
	}
	defer func() {
		if f != nil && !f.unhook(&c.cut) || stop != nil && !stop() {
			keep = false // the cut ran: the deadline is poisoned
		}
		if err != nil {
			err, keep = hopErr(ctx, err, deadline), false
		}
		if keep && c.br.Buffered() == 0 {
			c.t.put(c)
		} else {
			c.conn.Close()
		}
	}()
	if _, err = c.conn.Write(staged); err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return a, true, err
	}
	if c.head, err = readHead(c.br, c.head, false); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return a, false, err
	}
	head := string(c.head)
	line, fields, _ := strings.Cut(head, "\n")
	line = strings.TrimSuffix(line, "\r")
	proto, status, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(strings.TrimLeft(status, " "), " ")
	major, minor, ok := http.ParseHTTPVersion(proto)
	sc, cerr := strconv.ParseUint(code, 10, 10)
	if !ok || major != 1 || len(code) != 3 || cerr != nil || sc < 200 { // a 1xx included
		return a, false, fmt.Errorf("proxy: hop: unexpected status line %q", line)
	}
	a.Status, a.fields = int(sc), fields
	closing := minor == 0
	var cl, te string
	var cls, tes int
	for rest := fields; rest != ""; {
		var k, v string
		k, v, rest, ok = nextField(rest)
		switch {
		case !ok:
		case strings.EqualFold(k, "Content-Length"):
			if cls++; cls > 1 && v != cl { // repeats must agree
				return a, false, fmt.Errorf("proxy: hop: conflicting Content-Length %q, %q", cl, v)
			}
			cl = v
		case strings.EqualFold(k, "Transfer-Encoding"):
			te, tes = v, tes+1
		case strings.EqualFold(k, "Connection"):
			closing = closing || hasToken("close", v)
		}
	}
	n, body := int64(-1), io.Reader(c.br)
	switch {
	case sc == http.StatusNoContent || sc == http.StatusNotModified || req.Method == http.MethodHead:
		n = 0
	case tes > 0:
		if tes != 1 || !strings.EqualFold(te, "chunked") || minor == 0 {
			return a, false, fmt.Errorf("proxy: hop: unsupported transfer encoding %q", te)
		}
		body = newChunkedReader(c.br)
	case cls == 0:
		closing = true // the body ends with the connection
	default: // plain decimal
		u, err := strconv.ParseUint(cl, 10, 63)
		if err != nil {
			return a, false, fmt.Errorf("proxy: hop: bad Content-Length %q", cl)
		}
		n = int64(u)
	}
	a.Body, err = ReadSizedInto(req.Into, body, n, req.Max)
	keep = !closing
	return a, false, err
}
