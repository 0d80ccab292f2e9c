package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// ConnCounter counts, for every listener a LocalCluster binds while it is
// installed, the connections accepted and those still open.
type ConnCounter struct {
	mu        sync.Mutex
	listeners []*countingListener // in bind order: StartLocal's node order
}

// CountConns installs a ConnCounter until the test ends.
func CountConns(t testing.TB) *ConnCounter {
	c := &ConnCounter{}
	prev := listenLocal
	listenLocal = func() (net.Listener, error) {
		l, err := prev()
		if err != nil {
			return nil, err
		}
		cl := &countingListener{Listener: l}
		c.mu.Lock()
		c.listeners = append(c.listeners, cl)
		c.mu.Unlock()
		return cl, nil
	}
	t.Cleanup(func() { listenLocal = prev })
	return c
}

// Accepted is the connections accepted by every listener so far.
func (c *ConnCounter) Accepted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, l := range c.listeners {
		n += l.accepted.Load()
	}
	return n
}

// Open is the connections node i's listener accepted that are not yet
// closed.
func (c *ConnCounter) Open(i int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.listeners[i].open.Load()
}

type countingListener struct {
	net.Listener
	accepted, open atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	l.open.Add(1)
	return &countedConn{Conn: c, open: &l.open}, nil
}

type countedConn struct {
	net.Conn
	once sync.Once
	open *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// bytes flattens a frame for tests that post or compare whole frames.
func (f *frameEnc) bytes() []byte { return f.appendTo(nil) }
