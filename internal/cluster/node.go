package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvm/internal/attest"
	"dvm/internal/prefetch"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
	"dvm/internal/telemetry"
)

// maxPeerClassBytes bounds one peer response read; mirrors the client
// loader's bound so a misbehaving peer cannot OOM a node.
const maxPeerClassBytes = 16 << 20

// maxHotKeys bounds the per-node hot-key counter table. When it fills,
// every count is halved and the zeros dropped — aging that sheds a
// flood of distinct cold keys (count 1) while a genuinely hot key's
// count survives the pressure and can still cross the threshold.
const maxHotKeys = 4096

// DefaultReplication is the ring owners per key when Config leaves
// Replication zero: a primary plus one warm successor, so any single
// death degrades to a replica hit instead of a cold start.
const DefaultReplication = 2

// Config parameterizes one cluster node.
type Config struct {
	// Self is this node's peer URL (e.g. "http://10.0.0.1:8642"); the
	// other members reach its /peer/* endpoints there.
	Self string
	// Peers seeds the membership view, including Self (added if absent).
	// Unlike the pre-gossip design this need not be the full fleet: any
	// subset that overlaps the live cluster suffices, and the first
	// gossip exchange pulls in the rest. A node started with only itself
	// joins nothing until someone gossips to it.
	Peers []string
	// Replication is the ring owners per key: the primary plus
	// Replication-1 successors holding pushed warm copies
	// (0 = DefaultReplication; 1 disables replication).
	Replication int
	// GossipInterval is the membership anti-entropy period
	// (0 = default 500ms; <0 = manual mode: no background goroutines,
	// tests drive GossipNow / PullHandoff explicitly).
	GossipInterval time.Duration
	// SuspectTimeout is how long an unrefuted suspect survives before
	// being declared dead and dropped from the ring (0 = default 3s).
	SuspectTimeout time.Duration
	// HotThreshold is how many peer fills of one key this node performs
	// before replicating the key into its own cache (0 = default 8,
	// <0 = never replicate).
	HotThreshold int
	// PeerTimeout bounds one peer class fetch (default 3s).
	PeerTimeout time.Duration
	// Dial opens the node's peer connections (fault injection via
	// netsim.LinkFaults in tests). Nil = a net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)

	// PrefetchK is how many predicted successors an owner piggybacks
	// onto each fill it serves over the batch protocol (0 = default 3,
	// <0 = prediction and piggybacking disabled).
	PrefetchK int

	// AttestKey, when set, enables quorum attestation: every locally
	// transformed artifact is sealed under this shared service key, and
	// every hop that moves artifact bytes (peer fill, replica push,
	// handoff) rejects payloads that fail re-verification. All members
	// must share the key.
	AttestKey []byte
	// AttestQuorum is the variant count per attested key, owner included
	// (0 or 1 = local-only sealing: today's single-rewrite trust model,
	// no variant traffic). Every key runs at this quorum. A peer is
	// quarantined after QuarantineAfter divergences.
	AttestQuorum int

	// link overrides the peer-link constants (linkThreshold,
	// linkCooldown) for tests that need other timings.
	link linkTimings
}

// defaultHotThreshold is the peer-fill count after which a key is
// replicated locally when Config.HotThreshold is zero.
const defaultHotThreshold = 8

// Node is one member of a sharded proxy cluster: a local proxy whose
// Fleet it is (Fill, Seal), the peer-protocol client and
// server halves, and the live-membership machinery (gossip.go,
// membership.go, handoff.go).
type Node struct {
	cfg   Config
	local *proxy.Proxy
	// peerHop carries every peer-protocol exchange (doBatch, gossip). Its
	// idle pool per peer covers the node's own concurrency — one
	// connection per flight that may be talking to that peer at once — so
	// steady peer traffic reuses its connections instead of dialing.
	peerHop *proxy.HopTransport
	mship   *membership
	// epochHdr caches the epoch header's value for the current epoch
	// (currentEpoch).
	epochHdr atomic.Pointer[epochValue]

	ringMu sync.RWMutex
	ring   *Ring // rebuilt on every membership change; read via currentRing

	hotMu sync.Mutex
	hot   map[string]int

	// authority is the attestation engine (nil = attestation off).
	authority *attest.Authority

	// predictor is the decayed first-use successor graph feeding the
	// prefetch piggyback and the handoff heat ordering (nil = disabled).
	predictor *prefetch.Predictor

	life      context.Context // ends at Close, with the hops it bounds
	stop      context.CancelFunc
	wg        sync.WaitGroup
	pokeCh    chan struct{}    // coalesced "gossip now" requests
	handoffCh chan struct{}    // coalesced "pull handoff" requests
	replCh    chan replication // replication push queue

	// Cluster counters live in the local proxy's telemetry registry, so
	// one /metrics scrape covers the node end to end.
	m nodeMetrics
}

// nodeMetrics is the node's metric declaration (telemetry.Declare).
type nodeMetrics struct {
	PeerErrors  *telemetry.Counter `metric:"peer_errors_total"`  // failed peer-fill attempts (fell back to local origin)
	PeerServed  *telemetry.Counter `metric:"peer_served_total"`  // peer-protocol requests this node answered as owner
	HotReplicas *telemetry.Counter `metric:"hot_replicas_total"` // keys promoted into the local cache as hot
	// PeerBackpressure counts fills the owner shed with 429: deliberate
	// overload backpressure, not peer failures (no link penalty).
	PeerBackpressure *telemetry.Counter `metric:"peer_backpressure_total"`
	GossipRounds     *telemetry.Counter `metric:"gossip_rounds_total"`   // gossip exchanges handled or initiated
	GossipFails      *telemetry.Counter `metric:"gossip_failures_total"` // failed gossip exchanges
	Suspects         *telemetry.Counter `metric:"member_suspects_total"` // suspicions this node raised
	Deaths           *telemetry.Counter `metric:"member_deaths_total"`   // suspects this node promoted to dead
	EpochMismatch    *telemetry.Counter `metric:"epoch_mismatch_total"`  // piggybacked epochs that disagreed with ours
	ReplicaPush      *telemetry.Counter `metric:"replica_push_total"`    // replicas pushed to successors
	ReplicaStored    *telemetry.Counter `metric:"replica_stored_total"`  // replicas accepted into the local cache, pushed or kept
	ReplicaDrops     *telemetry.Counter `metric:"replica_dropped_total"` // replication pushes dropped (queue full)
	HandoffKeys      *telemetry.Counter `metric:"handoff_keys_total"`    // keys transferred by handoff (either direction)
	// Attestation counters (zero when attestation is off).
	AttestDivergence  *telemetry.Counter `metric:"attest_divergence_total"`  // minority votes + corrupt payloads, per voter per round
	AttestVariants    *telemetry.Counter `metric:"attest_variants_total"`    // variant votes this node served
	AttestRejects     *telemetry.Counter `metric:"attest_rejects_total"`     // inbound payloads rejected for missing/failed attestation
	AttestDegraded    *telemetry.Counter `metric:"attest_degraded_total"`    // quorum rounds sealed at 1 because no variant was reachable
	AttestQuarantines *telemetry.Counter `metric:"attest_quarantines_total"` // peers newly quarantined by this node's strikes
	// Prefetch counters (zero when prediction is off).
	PrefetchPushed   *telemetry.Counter   `metric:"prefetch_pushed_total"`      // successor entries piggybacked onto served fills
	PrefetchReceived *telemetry.Counter   `metric:"prefetch_received_total"`    // piggybacked entries accepted into the local cache
	PeerFetch        *telemetry.Histogram `metric:"peer_fetch_seconds"`         // peer-protocol hop latency
	Handoff          *telemetry.Histogram `metric:"handoff_seconds"`            // handoff pull duration
	PrefetchBatch    *telemetry.Histogram `metric:"prefetch_batch_bytes,bytes"` // piggybacked bytes per fill
}

// NewNode builds the node's proxy over origin with pcfg and makes the
// node its fleet (pcfg.Fleet is overwritten).
func NewNode(origin proxy.Origin, pcfg proxy.Config, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	cfg.Self = strings.TrimSuffix(cfg.Self, "/")
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p = strings.TrimSuffix(p, "/"); p != "" && p != cfg.Self {
			peers = append(peers, p)
		}
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = defaultHotThreshold
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 3 * time.Second
	}
	if cfg.Replication == 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = 500 * time.Millisecond
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 3 * time.Second
	}
	n := &Node{
		cfg:       cfg,
		peerHop:   &proxy.HopTransport{MaxIdlePerHost: proxy.DefaultMaxConcurrent(), Dial: cfg.Dial},
		mship:     newMembership(cfg.Self, peers, nil),
		hot:       make(map[string]int),
		pokeCh:    make(chan struct{}, 1),
		handoffCh: make(chan struct{}, 1),
		replCh:    make(chan replication, replQueueLen),
	}
	n.life, n.stop = context.WithCancel(context.Background())
	n.mship.link = cfg.link
	n.rebuildRing()
	n.mship.onChange = func(ringChanged bool) {
		if !ringChanged {
			return
		}
		n.rebuildRing()
		if cfg.GossipInterval > 0 {
			n.pokeHandoff()
			n.pokeGossip()
		}
	}
	pcfg.Fleet = n
	if cfg.PrefetchK >= 0 {
		n.predictor = prefetch.New(prefetch.Config{TopK: cfg.PrefetchK})
	}
	if len(cfg.AttestKey) > 0 {
		n.authority = attest.New(attest.Config{
			Key:    cfg.AttestKey,
			Policy: attest.Policy{Quorum: cfg.AttestQuorum},
		})
	}
	if pcfg.Node == "" {
		pcfg.Node = cfg.Self // trace spans name the node by its peer URL
	}
	n.local = proxy.New(origin, pcfg)
	reg := n.local.Telemetry()
	reg.Declare(&n.m)
	n.mship.suspects = n.m.Suspects
	if n.authority != nil {
		reg.Gauge("attest_quarantined_peers", func() float64 { return n.countViews(func(v PeerView) bool { return v.Quarantined }) })
	}
	reg.Gauge("ring_members", func() float64 { return float64(n.currentRing().Size()) })
	reg.Gauge("membership_epoch", func() float64 { return float64(n.mship.Epoch()) })
	for _, st := range []string{telemetry.MemberAlive, telemetry.MemberSuspect, telemetry.MemberDead, telemetry.MemberDraining} {
		reg.Gauge("membership_"+st, func() float64 { return n.countViews(func(v PeerView) bool { return v.State == st }) })
	}
	// Background machinery. Replication pushes always need their worker;
	// the gossip ticker and the automatic handoff trigger stay off in
	// manual mode (GossipInterval < 0) so tests control every transition.
	n.wg.Add(1)
	go n.replWorker()
	if cfg.GossipInterval > 0 {
		n.wg.Add(2)
		go n.gossipLoop()
		go n.handoffWorker()
		if len(peers) > 0 {
			// A booting node is a joining node: announce the join with one
			// immediate gossip round (so the peers' handoff filters already
			// count this node as an owner), then pull the keys it now owns
			// from the fleet's caches. On a cold fleet this is a cheap
			// no-op; on a live fleet it is the warm-up that prevents a
			// join-time miss storm.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				ctx, cancel := context.WithTimeout(n.life, 2*n.cfg.PeerTimeout)
				defer cancel()
				n.gossipRound(ctx)
				n.pokeHandoff()
			}()
		}
	}
	return n, nil
}

// rebuildRing recomputes the ring from the current ring-eligible
// membership.
func (n *Node) rebuildRing() {
	ring, err := NewRing(n.mship.RingMembers(), DefaultVirtualNodes, 0)
	if err != nil {
		return // membership guarantees at least self; unreachable
	}
	n.ringMu.Lock()
	n.ring = ring
	n.ringMu.Unlock()
}

// currentRing returns the live ring snapshot.
func (n *Node) currentRing() *Ring {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.ring
}

// Close stops the node's background goroutines (gossip, handoff,
// replication) mid-hop and drops its idle peer connections. It does not
// announce a departure — that is Drain; a bare Close looks to the fleet
// like a crash, which is exactly what the failure-detection tests want.
func (n *Node) Close() {
	n.stop()
	n.wg.Wait()
	n.peerHop.CloseIdleConnections()
}

// Proxy returns the node's local proxy (stats, diagnostics).
func (n *Node) Proxy() *proxy.Proxy { return n.local }

// Ring returns the node's current view of the ring.
func (n *Node) Ring() *Ring { return n.currentRing() }

// Self returns this node's peer URL.
func (n *Node) Self() string { return n.cfg.Self }

// Request serves one class through the cluster-aware local proxy.
func (n *Node) Request(ctx context.Context, l proxy.Lookup) (proxy.Result, error) {
	return n.local.Request(ctx, l)
}

// localOnlyKey marks a context as coming in over the peer protocol:
// such a request must be answered from this node (cache or origin) and
// never forwarded again, so a transient membership disagreement between
// two nodes' ring views cannot turn into a forwarding loop.
type localOnlyKey struct{}

func withLocalOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, localOnlyKey{}, true)
}

func isLocalOnly(ctx context.Context) bool {
	v, _ := ctx.Value(localOnlyKey{}).(bool)
	return v
}

// noteFill counts a peer fill for key and reports whether the key has
// crossed the hot threshold and should be replicated locally.
func (n *Node) noteFill(key string) bool {
	if n.cfg.HotThreshold < 0 {
		return false
	}
	n.hotMu.Lock()
	defer n.hotMu.Unlock()
	if len(n.hot) >= maxHotKeys {
		for k, c := range n.hot {
			if c >>= 1; c == 0 {
				delete(n.hot, k)
			} else {
				n.hot[k] = c
			}
		}
	}
	n.hot[key]++
	return n.hot[key] >= n.cfg.HotThreshold
}

// Fill implements proxy.Fleet: route the miss through the key's owner
// chain. The primary is tried first; if it is down, draining, or
// shedding, the warm replicas are tried in ring order — a replica holds
// the pushed bytes, so a primary death degrades to one extra hop, not a
// cold start. Reaching this node's own position in the chain (or
// exhausting it) falls back to the local origin.
func (n *Node) Fill(ctx context.Context, l proxy.Lookup) proxy.PeerResult {
	if isLocalOnly(ctx) {
		// Peer-protocol request: we are being asked *as* an owner (or as
		// a fallback); answer from here regardless of the ring view.
		return proxy.PeerResult{}
	}
	key := KeyFor(l.Arch, l.Class)
	owners := n.currentRing().Owners(key, n.cfg.Replication)
	if owners[0] == n.cfg.Self {
		// We own this key and a local client missed on it: that miss is
		// part of a first-use sequence worth learning, exactly like the
		// fills forwarded to us by peers.
		if n.predictor != nil {
			n.predictor.ObserveRequest(l.Client, l.Arch, l.Class)
		}
		return proxy.PeerResult{}
	}
	hot := n.noteFill(key)
	var last proxy.PeerResult
	for _, owner := range owners {
		if owner == n.cfg.Self {
			// Our own replica position: everything ahead of us in the
			// chain failed, and our cache already missed — transform
			// locally (we were due a copy of this key anyway).
			return proxy.PeerResult{}
		}
		if n.mship.quarantined(owner) {
			// Its standing says this peer has served divergent bytes: never
			// fill from it, even if its link is healthy.
			n.m.AttestRejects.Inc()
			last = proxy.PeerResult{Peer: owner, Err: fmt.Errorf("cluster: peer %s quarantined: %w", owner, attest.ErrVerify)}
			continue
		}
		res := n.fetchPeer(ctx, owner, l)
		res.Peer = owner
		switch {
		case res.Err == nil:
			if hot {
				res.CacheLocal = true
				n.m.HotReplicas.Inc()
			}
			return res
		case ctx.Err() != nil:
			// Every waiter left and the flight was canceled: that proves
			// nothing about the owner, and no other owner is wanted.
			return res
		case errors.Is(res.Err, proxy.ErrOverloaded):
			// Deliberate backpressure (overload shed or draining): the
			// peer is healthy but will not serve us.
			n.m.PeerBackpressure.Inc()
		case resilience.IsPermanent(res.Err):
			// A definitive answer (e.g. the owner's origin says not
			// found): only this key is unservable, and no other owner
			// will do better.
			n.m.PeerErrors.Inc()
			return res
		default:
			// A failed link, or bytes that failed re-verification
			// (fromWire already struck the owner for corrupt payloads).
			n.m.PeerErrors.Inc()
		}
		last = res // try the next owner in the chain
	}
	return last
}

// Handler returns the node's HTTP interface: the client-facing class
// routes of the local proxy, the versioned peer protocol
// (/peer/v2/batch, /peer/v2/vote, /peer/v1/gossip), and a /healthz that
// includes the live membership view. The pre-v1 single-key routes and
// the v1 JSON batch and vote are gone: every class payload and every
// vote that moves between nodes rides the v2 frame.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	// Versioned peer protocol: all cluster-internal traffic.
	mux.HandleFunc(BatchPath, n.handleBatch)
	mux.HandleFunc(VotePath, n.handleVote)
	mux.HandleFunc(gossipV1Path, n.handleGossip)
	mux.Handle("/healthz", telemetry.HealthHandler(n.Health))
	mux.Handle("/metrics", n.local.Telemetry().Handler())
	return proxy.WithClassRoute(n.local.ClassHandler(), mux)
}

// Health extends the local proxy's report with the cluster view: the
// live membership (with per-member state and the epoch) and each peer's
// standing. Any open link or non-alive member marks the node
// degraded (sharing is impaired even though requests succeed via
// replicas or the local origin fallback).
func (n *Node) Health() telemetry.Health {
	h := n.local.Health()
	h.Epoch = n.mship.Epoch()
	h.Ring = n.PeerViews()
	for _, v := range h.Ring {
		if v.Link == resilience.Open.String() || v.State != telemetry.MemberAlive || v.Quarantined {
			h.Status = telemetry.StatusDegraded
		}
	}
	return h
}

// PeerView is one member of the node's live membership view with this
// node's standing of it, as /healthz reports it.
type PeerView = telemetry.RingMemberHealth

// PeerViews snapshots the live membership with this node's standing of
// each member, in one read, sorted by member. Unlike the ring (alive +
// suspect only) this includes dead and draining members — the fleet's
// obituaries are diagnostic signal.
func (n *Node) PeerViews() []PeerView { return n.mship.views() }

// countViews counts the members whose view matches (telemetry gauges).
func (n *Node) countViews(match func(PeerView) bool) float64 {
	c := 0
	for _, v := range n.PeerViews() {
		if match(v) {
			c++
		}
	}
	return float64(c)
}

// PeerErrors returns the count of failed peer fills (diagnostics).
func (n *Node) PeerErrors() int64 { return n.m.PeerErrors.Load() }

// ReplicasPushed returns how many full replica pushes this node made to
// successors (diagnostics).
func (n *Node) ReplicasPushed() int64 { return n.m.ReplicaPush.Load() }
