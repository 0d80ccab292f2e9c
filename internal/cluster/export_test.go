package cluster

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/proxy"
	"dvm/internal/resilience"
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
func (f *frameEnc) bytes() []byte {
	var b []byte
	for _, r := range f.runs {
		b = append(b, r...)
	}
	return append(b, f.meta[f.from:]...)
}

// OldCompileMode is oldCompileMode for the external tests.
const OldCompileMode = oldCompileMode

// Metrics exposes a node's metric declaration to the external tests.
func (n *Node) Metrics() *nodeMetrics { return &n.m }

// WithLink returns cfg with its peer links opening after threshold
// consecutive counted failures and probing after cooldown (0 keeps the
// constant).
func WithLink(cfg Config, threshold int, cooldown time.Duration) Config {
	cfg.link = linkTimings{threshold, cooldown}
	return cfg
}

// standing is n's standing of addr (the zero standing if addr is no
// member): its link's state and consecutive counted failures, and its
// divergence strikes.
func (n *Node) standing(addr string) (s struct {
	link               resilience.BreakerState
	linkFails, strikes int
}) {
	n.mship.mu.Lock()
	defer n.mship.mu.Unlock()
	if e := n.mship.entries[addr]; e != nil {
		s.link, s.linkFails, s.strikes = e.link.State(n.mship.now, n.mship.link.cooldown), e.link.Fails(), e.strikes
	}
	return s
}

// MarshalBinary encodes the request as one frame, for tests that post a
// hand-built request.
func (r *BatchRequest) MarshalBinary() ([]byte, error) {
	f := r.encode()
	defer f.free()
	return f.bytes(), nil
}

// GossipNow runs one synchronous gossip round (exchange with every
// non-dead peer, then sweep). Production nodes run rounds on a ticker;
// manual-mode tests (GossipInterval < 0) call this so membership
// convergence is deterministic.
func (n *Node) GossipNow(ctx context.Context) { n.gossipRound(ctx) }

// Cached returns p's resident artifact for (arch, class), or nil, without
// touching LRU recency or any counter.
func Cached(p *proxy.Proxy, arch, class string) *proxy.Artifact {
	arts := p.CacheSnapshot(0, func(a, c string) bool { return a == arch && c == class })
	if len(arts) == 0 {
		return nil
	}
	return arts[0]
}
