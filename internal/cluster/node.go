package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
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
	// VirtualNodes per member on the ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Seed perturbs ring placement; all members must share it.
	Seed uint64
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
	// BreakerThreshold/BreakerCooldown parameterize the per-peer circuit
	// breakers (defaults as in internal/resilience).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport overrides the peer HTTP transport (fault injection via
	// netsim.LinkFaults / netsim.FaultyTransport). Nil = the node's own
	// (newPeerTransport), whose idle connections Close releases.
	Transport http.RoundTripper

	// PrefetchK is how many predicted successors an owner piggybacks
	// onto each fill it serves over the batch protocol (0 = default 3,
	// <0 = prediction and piggybacking disabled).
	PrefetchK int
	// PrefetchBudget bounds the piggybacked prefetch bytes per fill
	// response, both offered by the requester and clamped by the owner
	// (0 = default 256 KiB).
	PrefetchBudget int
	// PrefetchConfidence is the minimum successor confidence — the
	// edge's share of its source key's outgoing weight — for a
	// prediction to be pushed (0 = default 0.25).
	PrefetchConfidence float64

	// AttestKey, when set, enables quorum attestation: every locally
	// transformed artifact is sealed under this shared service key, and
	// every hop that moves artifact bytes (peer fill, replica push,
	// handoff) rejects payloads that fail re-verification. All members
	// must share the key.
	AttestKey []byte
	// AttestQuorum is the variant count per attested key, owner included
	// (0 or 1 = local-only sealing: today's single-rewrite trust model,
	// no variant traffic).
	AttestQuorum int
	// AttestPolicy selects which keys run at AttestQuorum: "always"
	// (default), "sampled" (1-in-AttestSampleRate by key hash), or "hot"
	// (keys past HotThreshold; others seal at quorum 1).
	AttestPolicy string
	// AttestSampleRate is the 1-in-N rate for the "sampled" policy
	// (0 = default 16).
	AttestSampleRate int
	// QuarantineAfter is how many divergences put a peer in quarantine
	// (0 = attest.DefaultQuarantineAfter).
	QuarantineAfter int
}

// defaultHotThreshold is the peer-fill count after which a key is
// replicated locally when Config.HotThreshold is zero.
const defaultHotThreshold = 8

// Node is one member of a sharded proxy cluster: a local proxy whose
// Fleet it is (Fill, Seal), the peer-protocol client and
// server halves, and the live-membership machinery (gossip.go,
// membership.go, handoff.go).
type Node struct {
	cfg    Config
	local  *proxy.Proxy
	client *http.Client
	// transport is the peer transport the node built for itself (nil when
	// Config.Transport was supplied): Close drops its idle connections.
	transport *http.Transport
	mship     *membership

	ringMu sync.RWMutex
	ring   *Ring // rebuilt on every membership change; read via currentRing

	breakerMu sync.Mutex
	breakers  map[string]*resilience.Breaker

	hotMu sync.Mutex
	hot   map[string]int

	// authority is the attestation engine (nil = attestation off).
	authority *attest.Authority

	// predictor is the decayed first-use successor graph feeding the
	// prefetch piggyback and the handoff heat ordering (nil = disabled).
	predictor *prefetch.Predictor

	gossip    gossipState
	life      context.Context // ends at Close, with the hops it bounds
	stop      context.CancelFunc
	wg        sync.WaitGroup
	pokeCh    chan struct{}    // coalesced "gossip now" requests
	handoffCh chan struct{}    // coalesced "pull handoff" requests
	replCh    chan replication // replication push queue

	// Cluster counters live in the local proxy's telemetry registry, so
	// one /metrics scrape covers the node end to end.
	cPeerErrors  *telemetry.Counter // failed peer-fill attempts (fell back to local origin)
	cPeerServed  *telemetry.Counter // peer-protocol requests this node answered as owner
	cHotReplicas *telemetry.Counter // keys promoted into the local cache as hot
	// cPeerBackpressure counts fills the owner shed with 429: deliberate
	// overload backpressure, not peer failures (no breaker penalty).
	cPeerBackpressure *telemetry.Counter
	cGossipRounds     *telemetry.Counter // gossip exchanges handled or initiated
	cGossipFails      *telemetry.Counter // failed gossip exchanges
	cSuspects         *telemetry.Counter // suspicions this node raised
	cDeaths           *telemetry.Counter // suspects this node promoted to dead
	cEpochMismatch    *telemetry.Counter // piggybacked epochs that disagreed with ours
	cReplicaPush      *telemetry.Counter // replicas pushed to successors
	cReplicaStored    *telemetry.Counter // replicas accepted into the local cache, pushed or kept
	cReplicaDrops     *telemetry.Counter // replication pushes dropped (queue full)
	cHandoffKeys      *telemetry.Counter // keys transferred by handoff (either direction)
	// Attestation counters (zero when attestation is off).
	cAttestDivergence  *telemetry.Counter // minority votes + corrupt payloads, per voter per round
	cAttestVariants    *telemetry.Counter // variant votes this node served
	cAttestRejects     *telemetry.Counter // inbound payloads rejected for missing/failed attestation
	cAttestDegraded    *telemetry.Counter // quorum rounds sealed at 1 because no variant was reachable
	cAttestQuarantines *telemetry.Counter // peers newly quarantined by this node's ledger
	// Prefetch counters (zero when prediction is off).
	cPrefetchPushed   *telemetry.Counter   // successor entries piggybacked onto served fills
	cPrefetchReceived *telemetry.Counter   // piggybacked entries accepted into the local cache
	hPeerFetch        *telemetry.Histogram // peer-protocol hop latency
	hHandoff          *telemetry.Histogram // handoff pull duration
	hPrefetchBatch    *telemetry.Histogram // piggybacked bytes per fill (byte-valued buckets)
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
	if cfg.PrefetchBudget <= 0 {
		cfg.PrefetchBudget = defaultPrefetchBudget
	}
	n := &Node{
		cfg:       cfg,
		client:    &http.Client{Transport: cfg.Transport},
		mship:     newMembership(cfg.Self, peers, nil),
		breakers:  make(map[string]*resilience.Breaker),
		hot:       make(map[string]int),
		pokeCh:    make(chan struct{}, 1),
		handoffCh: make(chan struct{}, 1),
		replCh:    make(chan replication, replQueueLen),
	}
	n.life, n.stop = context.WithCancel(context.Background())
	if cfg.Transport == nil {
		n.transport = newPeerTransport()
		n.client.Transport = n.transport
	}
	n.gossip.fails = make(map[string]int)
	ring, err := NewRing(n.mship.RingMembers(), cfg.VirtualNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n.ring = ring
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
		n.predictor = prefetch.New(prefetch.Config{
			TopK:          cfg.PrefetchK,
			MinConfidence: cfg.PrefetchConfidence,
		})
	}
	if len(cfg.AttestKey) > 0 {
		mode, err := attest.ParseMode(cfg.AttestPolicy)
		if err != nil {
			return nil, err
		}
		n.authority = attest.New(attest.Config{
			Key: cfg.AttestKey,
			Policy: attest.Policy{
				Quorum:     cfg.AttestQuorum,
				Mode:       mode,
				SampleRate: cfg.AttestSampleRate,
				Hot:        n.isHotKey,
			},
			QuarantineAfter: cfg.QuarantineAfter,
		})
	}
	if pcfg.Node == "" {
		pcfg.Node = cfg.Self // trace spans name the node by its peer URL
	}
	n.local = proxy.New(origin, pcfg)
	reg := n.local.Telemetry()
	n.cPeerErrors = reg.Counter("peer_errors_total")
	n.cPeerServed = reg.Counter("peer_served_total")
	n.cHotReplicas = reg.Counter("hot_replicas_total")
	n.cPeerBackpressure = reg.Counter("peer_backpressure_total")
	n.cGossipRounds = reg.Counter("gossip_rounds_total")
	n.cGossipFails = reg.Counter("gossip_failures_total")
	n.cSuspects = reg.Counter("member_suspects_total")
	n.cDeaths = reg.Counter("member_deaths_total")
	n.cEpochMismatch = reg.Counter("epoch_mismatch_total")
	n.cReplicaPush = reg.Counter("replica_push_total")
	n.cReplicaStored = reg.Counter("replica_stored_total")
	n.cReplicaDrops = reg.Counter("replica_dropped_total")
	n.cHandoffKeys = reg.Counter("handoff_keys_total")
	n.cAttestDivergence = reg.Counter("attest_divergence_total")
	n.cAttestVariants = reg.Counter("attest_variants_total")
	n.cAttestRejects = reg.Counter("attest_rejects_total")
	n.cAttestDegraded = reg.Counter("attest_degraded_total")
	n.cAttestQuarantines = reg.Counter("attest_quarantines_total")
	if n.authority != nil {
		reg.Gauge("attest_quarantined_peers", func() float64 {
			q := 0
			for _, s := range n.authority.Suspicions() {
				if s.Quarantined {
					q++
				}
			}
			return float64(q)
		})
	}
	n.cPrefetchPushed = reg.Counter("prefetch_pushed_total")
	n.cPrefetchReceived = reg.Counter("prefetch_received_total")
	n.hPeerFetch = reg.Histogram("peer_fetch_seconds", nil)
	n.hHandoff = reg.Histogram("handoff_seconds", nil)
	// Byte-valued buckets: the histogram type counts time.Durations, so
	// the bounds are byte counts cast to Duration (1 KiB .. 4 MiB).
	n.hPrefetchBatch = reg.Histogram("prefetch_batch_bytes", []time.Duration{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
	})
	reg.Gauge("ring_members", func() float64 { return float64(n.currentRing().Size()) })
	reg.Gauge("membership_epoch", func() float64 { return float64(n.mship.Epoch()) })
	for st, name := range map[memberState]string{
		stateAlive: "membership_alive", stateSuspect: "membership_suspect",
		stateDead: "membership_dead", stateDraining: "membership_draining",
	} {
		st := st
		reg.Gauge(name, func() float64 { return float64(n.mship.counts()[st]) })
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
	ring, err := NewRing(n.mship.RingMembers(), n.cfg.VirtualNodes, n.cfg.Seed)
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
// replication) mid-hop and drops the idle peer connections of the
// transport the node built for itself. It does not announce a departure
// — that is Drain; a bare Close looks to the fleet like a crash, which is
// exactly what the failure-detection tests want.
func (n *Node) Close() {
	n.stop()
	n.wg.Wait()
	if n.transport != nil {
		n.transport.CloseIdleConnections()
	}
}

// peerWriteBuffer is the peer transport's write buffer: a whole class
// frame goes out in one write instead of spilling into a per-request
// copy buffer and a second write.
const peerWriteBuffer = 16 << 10

// newPeerTransport builds a node's own peer transport: the default
// transport's dialer and timeouts, with an idle pool per peer that covers
// the node's own concurrency — one connection per flight that may be
// talking to that peer at once — so steady peer traffic reuses its
// connections instead of dialing (http.DefaultTransport keeps two per
// host, shared by every node in the process).
func newPeerTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConnsPerHost:   proxy.DefaultMaxConcurrent(),
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
		WriteBufferSize:       peerWriteBuffer,
	}
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

// breaker returns (creating on demand) the circuit breaker guarding the
// link to peer. A breaker tripping open is the data path's failure
// evidence: it feeds the membership layer's suspicion directly, so a
// dead peer starts its suspect clock on the first tripped fill rather
// than waiting for gossip to notice.
func (n *Node) breaker(peer string) *resilience.Breaker {
	n.breakerMu.Lock()
	defer n.breakerMu.Unlock()
	b, ok := n.breakers[peer]
	if !ok {
		peer := peer
		b = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: n.cfg.BreakerThreshold,
			Cooldown:  n.cfg.BreakerCooldown,
			OnStateChange: func(_, to resilience.BreakerState) {
				if to == resilience.Open {
					n.suspect(peer)
					if n.cfg.GossipInterval > 0 {
						n.pokeGossip()
					}
				}
			},
		})
		n.breakers[peer] = b
	}
	return b
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

// isHotKey reports whether this node's fill counter has seen the key
// cross the hot threshold — the "hot" attestation policy's selector, so
// the quorum tax lands only on the keys whose artifacts fan out.
func (n *Node) isHotKey(arch, class string) bool {
	if n.cfg.HotThreshold < 0 {
		return false
	}
	n.hotMu.Lock()
	defer n.hotMu.Unlock()
	return n.hot[KeyFor(arch, class)] >= n.cfg.HotThreshold
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
		if n.authority != nil && n.authority.Quarantined(owner) {
			// The ledger says this peer has served divergent bytes: never
			// fill from it, even if its link is healthy.
			n.cAttestRejects.Inc()
			last = proxy.PeerResult{Peer: owner, Err: fmt.Errorf("cluster: peer %s quarantined: %w", owner, attest.ErrVerify)}
			continue
		}
		b := n.breaker(owner)
		if err := b.Allow(); err != nil {
			// The link is presumed down: skip the network hop.
			n.cPeerErrors.Inc()
			last = proxy.PeerResult{Peer: owner, Err: err}
			continue
		}
		res := n.fetchPeer(ctx, owner, l)
		res.Peer = owner
		switch {
		case res.Err == nil:
			b.Success()
			n.mship.Refute(owner) // direct evidence of life
			if hot {
				res.CacheLocal = true
				n.cHotReplicas.Inc()
			}
			return res
		case errors.Is(res.Err, proxy.ErrOverloaded):
			// Deliberate backpressure (overload shed or draining): the
			// peer is healthy — no breaker penalty, counted apart from
			// real failures — but it will not serve us.
			b.Success()
			n.cPeerBackpressure.Inc()
		case attestRejection(res.Err):
			// The payload failed re-verification: the link is healthy (no
			// breaker penalty) but the bytes cannot be used. fromWire
			// already fed the ledger for corrupt payloads.
			b.Success()
			n.cPeerErrors.Inc()
		case resilience.IsPermanent(res.Err):
			// A definitive answer (e.g. the owner's origin says not
			// found): the peer is healthy, only this key is unservable.
			// No other owner will do better.
			b.Success()
			n.cPeerErrors.Inc()
			return res
		default:
			b.Failure()
			n.cPeerErrors.Inc()
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
	mux.Handle("/classes/", n.local.Handler())
	// Versioned peer protocol: all cluster-internal traffic.
	mux.HandleFunc(BatchPath, n.handleBatch)
	mux.HandleFunc(VotePath, n.handleVote)
	mux.HandleFunc(gossipV1Path, n.handleGossip)
	mux.Handle("/healthz", telemetry.HealthHandler(n.Health))
	mux.Handle("/metrics", n.local.Telemetry().Handler())
	return mux
}

// Health extends the local proxy's report with the cluster view: the
// live membership (with per-member state and the epoch) and per-link
// breaker states. Any open link or non-alive member marks the node
// degraded (sharing is impaired even though requests succeed via
// replicas or the local origin fallback).
func (n *Node) Health() telemetry.Health {
	h := n.local.Health()
	h.Epoch = n.mship.Epoch()
	for _, v := range n.PeerViews() {
		h.Ring = append(h.Ring, telemetry.RingMemberHealth{
			Member: v.Member, State: v.State, Link: v.Link, Self: v.Self,
			Quarantined: v.Quarantined, Divergences: v.Divergences,
		})
		if v.Link == resilience.Open.String() || v.State != telemetry.MemberAlive || v.Quarantined {
			h.Status = telemetry.StatusDegraded
		}
	}
	return h
}

// PeerView is one member of the node's live membership view
// (diagnostics).
type PeerView struct {
	Member string
	Self   bool
	// State is the member's membership state ("alive", "suspect",
	// "dead", "draining").
	State string
	// Link is the local breaker state for the path to this member
	// ("closed" = healthy, "open" = presumed down, "-" for self).
	Link string
	// Divergences is the member's attestation suspicion count on this
	// node's ledger; Quarantined marks it past the threshold (excluded
	// from peer fill and variant selection). Always zero/false when
	// attestation is off.
	Divergences int
	Quarantined bool
}

// PeerViews snapshots the live membership with per-link health, sorted
// by member. Unlike the ring (alive + suspect only) this includes dead
// and draining members — the fleet's obituaries are diagnostic signal.
func (n *Node) PeerViews() []PeerView {
	out := make([]PeerView, 0, 4)
	for _, m := range n.mship.Snapshot() {
		v := PeerView{Member: m.Addr, Self: m.Addr == n.cfg.Self, State: m.State, Link: "-"}
		if !v.Self {
			n.breakerMu.Lock()
			b := n.breakers[m.Addr]
			n.breakerMu.Unlock()
			if b == nil {
				v.Link = "closed"
			} else {
				v.Link = b.State().String()
			}
		}
		if n.authority != nil {
			v.Divergences = n.authority.Divergences(m.Addr)
			v.Quarantined = n.authority.Quarantined(m.Addr)
		}
		out = append(out, v)
	}
	return out
}

// PeerErrors returns the count of failed peer fills (diagnostics).
func (n *Node) PeerErrors() int64 { return n.cPeerErrors.Load() }

// HotReplicas returns how many peer fills were promoted into the local
// cache as hot keys (diagnostics).
func (n *Node) HotReplicas() int64 { return n.cHotReplicas.Load() }

// PeerBackpressure returns how many peer fills the owner shed with 429
// (diagnostics).
func (n *Node) PeerBackpressure() int64 { return n.cPeerBackpressure.Load() }

// ReplicasStored returns how many replicas, pushed or kept as a voter,
// this node accepted into its cache (diagnostics).
func (n *Node) ReplicasStored() int64 { return n.cReplicaStored.Load() }

// ReplicasPushed returns how many full replica pushes this node made to
// successors (diagnostics).
func (n *Node) ReplicasPushed() int64 { return n.cReplicaPush.Load() }

// HandoffKeys returns how many keys handoff moved through this node,
// pulled or pushed (diagnostics).
func (n *Node) HandoffKeys() int64 { return n.cHandoffKeys.Load() }
