package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"

	"dvm/internal/proxy"
)

// LocalCluster is an in-process cluster: n nodes, each with a real HTTP
// listener on a loopback port, so the peer protocol runs over the
// actual wire path while everything lives in one process. It backs the
// eval scalability tables and the chaos tests, and doubles as a
// single-machine deployment helper. With live membership it also models
// churn: Stop is a crash (server killed, gossip loops stopped, no
// goodbye), Drain a graceful leave, AddNode a join.
type LocalCluster struct {
	Nodes []*Node

	origin  proxy.Origin
	mkProxy func(i int) proxy.Config
	mkClust func(i int) Config

	servers   []*proxy.HopServer
	listeners []net.Listener
	wg        sync.WaitGroup

	mu      sync.Mutex
	stopped []bool
}

// listenLocal binds one node's loopback listener. A variable so a test
// can count the connections a fleet accepts (export_test.go).
var listenLocal = func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// StartLocal builds and serves n nodes over origin. mkProxy(i) supplies
// each node's proxy config (nil = cache enabled, defaults otherwise);
// mkCluster(i) supplies each node's cluster config, whose Self and
// Peers are overwritten with the loopback endpoints (nil = defaults).
// Listeners are bound before any node is constructed, so every node is
// born with the complete membership list.
func StartLocal(origin proxy.Origin, n int, mkProxy func(i int) proxy.Config, mkCluster func(i int) Config) (*LocalCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: local cluster needs at least 1 node")
	}
	c := &LocalCluster{origin: origin, mkProxy: mkProxy, mkClust: mkCluster, stopped: make([]bool, n)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := listenLocal()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.listeners = append(c.listeners, l)
		urls[i] = "http://" + l.Addr().String()
	}
	for i := 0; i < n; i++ {
		if err := c.startNode(i, urls[i], urls); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startNode constructs node i over an already-bound listener and serves
// it. peers seeds the node's membership.
func (c *LocalCluster) startNode(i int, self string, peers []string) error {
	pcfg := proxy.Config{CacheEnabled: true}
	if c.mkProxy != nil {
		pcfg = c.mkProxy(i)
	}
	ccfg := Config{}
	if c.mkClust != nil {
		ccfg = c.mkClust(i)
	}
	ccfg.Self = self
	ccfg.Peers = peers
	node, err := NewNode(c.origin, pcfg, ccfg)
	if err != nil {
		return err
	}
	srv := &proxy.HopServer{Handler: node.Handler()}
	if i < len(c.Nodes) {
		c.Nodes[i], c.servers[i] = node, srv
	} else {
		c.Nodes = append(c.Nodes, node)
		c.servers = append(c.servers, srv)
	}
	c.wg.Add(1)
	go func(srv *proxy.HopServer, l net.Listener) {
		defer c.wg.Done()
		_ = srv.Serve(l)
	}(srv, c.listeners[i])
	return nil
}

// AddNode binds a fresh listener and starts one more node, seeded with
// the given peers (nil = every currently-running node) — a live join.
// Returns the new node's index. The join propagates by gossip: in
// manual mode, the new node is announced by the first round its test
// drives.
func (c *LocalCluster) AddNode(peers []string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, err := listenLocal()
	if err != nil {
		return -1, err
	}
	if peers == nil {
		for i, n := range c.Nodes {
			if !c.stopped[i] {
				peers = append(peers, n.Self())
			}
		}
	}
	i := len(c.Nodes)
	c.listeners = append(c.listeners, l)
	c.stopped = append(c.stopped, false)
	if err := c.startNode(i, "http://"+l.Addr().String(), peers); err != nil {
		_ = l.Close()
		c.listeners = c.listeners[:i]
		c.stopped = c.stopped[:i]
		return -1, err
	}
	return i, nil
}

// URLs returns the nodes' peer endpoints in node order.
func (c *LocalCluster) URLs() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Self()
	}
	return out
}

// Stop crashes node i: its HTTP server dies and its background loops
// stop, with no departure announcement — to the rest of the fleet it
// just went silent, which is exactly what failure detection must
// handle. The in-process object remains readable for assertions.
func (c *LocalCluster) Stop(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.servers) || c.stopped[i] {
		return
	}
	c.stopped[i] = true
	_ = c.servers[i].Close()
	c.Nodes[i].Close()
}

// Drain gracefully removes node i: announce, hand off, then shut the
// server down — the polite counterpart of Stop.
func (c *LocalCluster) Drain(ctx context.Context, i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.servers) || c.stopped[i] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %d not running", i)
	}
	node, srv := c.Nodes[i], c.servers[i]
	c.mu.Unlock()
	err := node.Drain(ctx)
	c.mu.Lock()
	if !c.stopped[i] {
		c.stopped[i] = true
		_ = srv.Close()
		node.Close()
	}
	c.mu.Unlock()
	return err
}

// Close shuts down every node's server and background loops.
func (c *LocalCluster) Close() {
	c.mu.Lock()
	for i, srv := range c.servers {
		if !c.stopped[i] {
			c.stopped[i] = true
			_ = srv.Close()
			c.Nodes[i].Close()
		}
	}
	// Listeners without a server yet (constructor failure path).
	for i := len(c.servers); i < len(c.listeners); i++ {
		_ = c.listeners[i].Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}
