package cluster_test

// Peer dialers for the tests: the hop's seam is its dial function, so a
// test sees and steers the peer protocol through the connections it
// dials — recording their bytes, or acting on each request as it is
// written.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"
)

// wireRecorder is a dialer whose connections record every byte written
// and read, so a test can read back each exchange that crossed them.
type wireRecorder struct {
	mu    sync.Mutex
	conns []*recordedConn
}

func (r *wireRecorder) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c := &recordedConn{Conn: conn}
	r.mu.Lock()
	r.conns = append(r.conns, c)
	r.mu.Unlock()
	return c, nil
}

type recordedConn struct {
	net.Conn
	mu        sync.Mutex
	sent, got bytes.Buffer
}

func (c *recordedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.got.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// exchange is one recorded request, with its answer's header (nil if the
// answer had not arrived whole).
type exchange struct {
	path           string
	header, answer http.Header
}

// exchanges parses what every connection recorded, in dial order. An
// exchange still on the wire ends its connection's list.
func (r *wireRecorder) exchanges(t *testing.T) []exchange {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []exchange
	for _, c := range r.conns {
		c.mu.Lock()
		reqs := bufio.NewReader(bytes.NewReader(c.sent.Bytes()))
		answers := bufio.NewReader(bytes.NewReader(c.got.Bytes()))
		c.mu.Unlock()
		for {
			req, err := http.ReadRequest(reqs)
			if err != nil {
				break
			}
			_, _ = io.Copy(io.Discard, req.Body)
			e := exchange{path: req.URL.Path, header: req.Header}
			if resp, err := http.ReadResponse(answers, req); err == nil {
				if _, err := io.Copy(io.Discard, resp.Body); err == nil {
					e.answer = resp.Header
				}
			}
			out = append(out, e)
		}
	}
	return out
}

// hookDial is a dialer whose connections hand each request, as it is
// written, to write, and report each read to read. refuse, when set and
// returning an error, refuses a dial.
type hookDial struct {
	refuse func() error
	write  func(c *hookConn, p []byte) (int, error)
	read   func(c *hookConn, n int)
}

func (h *hookDial) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if h.refuse != nil {
		if err := h.refuse(); err != nil {
			return nil, err
		}
	}
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &hookConn{Conn: conn, h: h, changed: make(chan struct{})}, nil
}

// hookConn is a connection of a hookDial. It tracks its deadline, which
// the hop also sets in the past to cut an exchange off, so that a hook
// that holds a request (wait) lets go when the exchange would end.
type hookConn struct {
	net.Conn
	h    *hookDial
	flag bool // the hooks' own state

	mu       sync.Mutex
	deadline time.Time
	changed  chan struct{} // closed when the deadline changes
}

func (c *hookConn) Write(p []byte) (int, error) {
	if c.h.write != nil {
		return c.h.write(c, p)
	}
	return c.Conn.Write(p)
}

func (c *hookConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.h.read != nil {
		c.h.read(c, n)
	}
	return n, err
}

func (c *hookConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	close(c.changed)
	c.changed = make(chan struct{})
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// wait blocks until open is closed (nil = never), or until the
// connection's deadline passes, which it reports as a timeout.
func (c *hookConn) wait(open <-chan struct{}) error {
	for {
		c.mu.Lock()
		deadline, changed := c.deadline, c.changed
		c.mu.Unlock()
		timer := time.NewTimer(time.Hour)
		if !deadline.IsZero() {
			timer.Reset(time.Until(deadline))
		}
		select {
		case <-open:
			timer.Stop()
			return nil
		case <-timer.C:
			if !deadline.IsZero() {
				return os.ErrDeadlineExceeded
			}
		case <-changed:
			timer.Stop()
		}
	}
}

// isRequest reports whether p is the start of a request for path.
func isRequest(p []byte, method, path string) bool {
	return bytes.HasPrefix(p, []byte(method+" "+path+" "))
}
