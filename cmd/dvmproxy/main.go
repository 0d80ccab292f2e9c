// Command dvmproxy runs the DVM service proxy: it intercepts class
// requests, applies the static service pipeline (verification, security
// rewriting, auditing, compilation), caches results, and serves clients
// over HTTP — the organization's single logical point of control.
//
// Usage:
//
//	dvmproxy -addr :8642 -origin ./classes [-policy policy.xml]
//	         [-no-cache] [-no-compile] [-audit-log proxy-audit.log]
//	         [-fetch-timeout 10s] [-retries 2] [-breaker-threshold 5]
//	         [-cache-ttl 0]
//	         [-max-queue 256 -queue-deadline 100ms -shed-policy priority]
//	         [-self http://10.0.0.1:8642 -peers http://10.0.0.1:8642,http://10.0.0.2:8642]
//
// The origin directory maps internal class names to files:
// jlex/Main -> ./classes/jlex/Main.class. Origin fetches carry a
// per-attempt deadline, bounded retries, and a circuit breaker; with a
// cache TTL set, an unreachable origin degrades to serving stale cache
// entries (stale-if-error) instead of failing requests.
//
// Cluster mode (-self/-peers) joins this proxy to a sharded fleet: a
// consistent-hash ring assigns every (arch, class) key an owner node,
// and misses for keys owned elsewhere are filled from the owner over
// the versioned batch peer protocol (POST /peer/v2/batch) instead of
// refetched from the origin — one origin fetch and one pipeline run per
// key across the whole fleet. Owners also piggyback each served class's
// top -prefetch-k predicted first-use successors onto fill responses
// (byte-budgeted by -prefetch-budget, thresholded by
// -prefetch-confidence), pre-warming the requester's cache before the
// client asks; -prefetch-k -1 disables the predictor. Membership is
// live: -peers is only a seed list, gossip (every -gossip-interval)
// discovers the rest of the fleet, detects failures (suspect, then dead
// after -suspect-timeout), and rebalances the ring on joins and leaves.
// Each key is replicated to -replication owners, so a node death
// degrades to a warm replica hit. A peer that stops answering trips a
// per-link breaker (feeding failure suspicion) and this node degrades
// to local fetches. /healthz shows the live membership with per-member
// state and the view epoch.
//
// With -attest-key the fleet cross-checks its rewrites: an owner-side
// miss dispatches the origin bytes to -attest-quorum minus one ring
// successors, each votes with its own pipeline's output digest, and on
// agreement the artifact is sealed under the shared key. Every peer hop
// (fill, replica push, handoff) re-verifies the seal before trusting
// the bytes; a peer whose bytes or votes diverge is quarantined after
// -quarantine-after strikes and surfaced in /healthz.
//
// The server drains gracefully on SIGINT/SIGTERM: with -drain (the
// default) a cluster node first announces its departure and hands its
// cache off to each key's new owners, then the listener closes and
// in-flight requests get -drain-timeout to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/compiler"
	"dvm/internal/monitor"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/security"
	"dvm/internal/verifier"
)

// dirOrigin serves classfiles from a directory tree.
type dirOrigin struct{ root string }

func (d dirOrigin) Fetch(_ context.Context, name string) ([]byte, error) {
	if strings.Contains(name, "..") {
		return nil, fmt.Errorf("origin: bad class name %q", name)
	}
	b, err := os.ReadFile(filepath.Join(d.root, filepath.FromSlash(name)+".class"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("origin: %s: %w", name, proxy.ErrNotFound)
	}
	return b, err
}

func main() {
	addr := flag.String("addr", ":8642", "HTTP listen address")
	originDir := flag.String("origin", "", "directory serving original .class files (required)")
	policyPath := flag.String("policy", "", "security policy XML (omit to disable the security filter)")
	noCache := flag.Bool("no-cache", false, "disable the proxy result cache")
	diskCache := flag.String("disk-cache", "", "directory backing the cache on disk (survives restarts)")
	cacheTTL := flag.Duration("cache-ttl", 0, "cache entry freshness window; expired entries are revalidated, and served stale when the origin is down (0 = never expire)")
	noCompile := flag.Bool("no-compile", false, "disable the AOT compilation filter")
	noAuditFilter := flag.Bool("no-audit", false, "disable the audit rewriting filter")
	auditLog := flag.String("audit-log", "", "append the request audit trail to this file")
	statsInterval := flag.Duration("stats-interval", time.Minute, "periodic stats summary interval (0 disables)")
	fetchTimeout := flag.Duration("fetch-timeout", 10*time.Second, "per-attempt origin fetch deadline (0 = none)")
	retries := flag.Int("retries", 2, "origin fetch retries after the first failed attempt")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive origin failures that trip the circuit breaker (-1 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before probing")
	self := flag.String("self", "", "this node's peer URL in a sharded proxy cluster (e.g. http://10.0.0.1:8642); empty = standalone")
	peers := flag.String("peers", "", "comma-separated seed peer URLs; gossip discovers the rest of the fleet from any live subset")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member on the consistent-hash ring (0 = default)")
	replication := flag.Int("replication", 0, "ring owners per key: primary plus warm replicas (0 = default 2, 1 = no replication)")
	gossipInterval := flag.Duration("gossip-interval", 500*time.Millisecond, "membership gossip period")
	suspectTimeout := flag.Duration("suspect-timeout", 3*time.Second, "how long an unrefuted suspect survives before being declared dead")
	drain := flag.Bool("drain", true, "on SIGINT/SIGTERM, announce departure and hand the cache off to the new owners before shutting down")
	hotThreshold := flag.Int("hot-threshold", 0, "peer fills of one key before it is replicated into the local cache (0 = default 8, -1 = never)")
	attestKey := flag.String("attest-key", "", "shared service key enabling quorum attestation: artifacts are sealed under it and re-verified on every peer hop (all members must agree; empty = attestation off)")
	attestQuorum := flag.Int("attest-quorum", 2, "variants per attested key, owner included (1 = seal locally without cross-checking)")
	attestPolicy := flag.String("attest-policy", "always", "which keys run at the full quorum: always, sampled (1-in-attest-sample-rate by key hash), or hot (keys past -hot-threshold)")
	attestSampleRate := flag.Int("attest-sample-rate", 0, "1-in-N rate for -attest-policy sampled (0 = default 16)")
	quarantineAfter := flag.Int("quarantine-after", 0, "attestation divergences before a peer is quarantined: excluded from fills and variant votes (0 = default 3)")
	aotBaseArch := flag.String("aot-base-arch", "", "enable the shared AOT code cache: misses for the compiled arch derive from this base architecture's cached artifact (e.g. jvm; empty = off); standalone or cluster")
	prefetchK := flag.Int("prefetch-k", 0, "predictive prefetch: top-k first-use successors piggybacked onto each peer fill (0 = default 3, -1 disables the predictor)")
	prefetchBudget := flag.Int("prefetch-budget", 0, "predictive prefetch: byte budget per piggyback batch (0 = default 256KiB)")
	prefetchConfidence := flag.Float64("prefetch-confidence", 0, "predictive prefetch: minimum successor confidence (edge weight / out-weight) to piggyback (0 = default 0.25)")
	peerTimeout := flag.Duration("peer-timeout", 3*time.Second, "deadline for one peer class fetch")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "bound on reading a request's headers (slowloris guard)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long in-flight requests get to finish on shutdown")
	maxQueue := flag.Int("max-queue", 0, "admission control: max miss requests queued for a service slot (0 disables admission)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission control: max concurrent origin-fetch+pipeline flights (0 = 8 x GOMAXPROCS)")
	queueDeadline := flag.Duration("queue-deadline", 0, "admission control: max wait for a service slot before shedding (0 = 1s)")
	shedPolicy := flag.String("shed-policy", proxy.ShedPriority, "what to shed under overload: priority (stale-serve first, peers before clients) or fifo (tail-drop only); -max-queue 0 turns admission control off")
	flag.Parse()
	if *originDir == "" {
		fmt.Fprintln(os.Stderr, "usage: dvmproxy -origin dir [-addr :8642] [-policy policy.xml] [-self URL -peers URL,...]")
		os.Exit(2)
	}
	if *self == "" && *peers != "" {
		log.Fatal("dvmproxy: -peers requires -self")
	}

	pipe := rewrite.NewPipeline(verifier.Filter())
	if *policyPath != "" {
		data, err := os.ReadFile(*policyPath)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		pol, err := security.ParsePolicy(data)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		pipe.Append(security.Filter(pol))
	}
	if !*noAuditFilter {
		pipe.Append(monitor.Filter(monitor.Config{Methods: true, Skip: monitor.SkipInitializers}))
	}
	if !*noCompile {
		pipe.Append(compiler.Filter())
	}

	cfg := proxy.Config{
		Pipeline:         pipe,
		CacheEnabled:     !*noCache,
		DiskCacheDir:     *diskCache,
		CacheTTL:         *cacheTTL,
		FetchTimeout:     *fetchTimeout,
		FetchRetries:     *retries,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		MaxQueue:         *maxQueue,
		MaxConcurrent:    *maxConcurrent,
		QueueDeadline:    *queueDeadline,
		ShedPolicy:       *shedPolicy,
		AOTBaseArch:      *aotBaseArch,
	}
	if *shedPolicy != proxy.ShedPriority && *shedPolicy != proxy.ShedFIFO {
		log.Fatalf("dvmproxy: -shed-policy %q: want %s or %s", *shedPolicy, proxy.ShedPriority, proxy.ShedFIFO)
	}
	if *aotBaseArch != "" {
		log.Printf("dvmproxy: AOT code cache on: misses for the compiled arch derive from cached %q artifacts (one compilation per key)",
			*aotBaseArch)
	}
	if *auditLog != "" {
		f, err := os.OpenFile(*auditLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		defer f.Close()
		cfg.OnAudit = func(r proxy.RequestRecord) {
			fmt.Fprintf(f, "client=%s arch=%s class=%s bytes=%d cached=%v coalesced=%v rejected=%v stale=%v peer=%q peerErr=%q fetchErr=%q dur=%s\n",
				r.Client, r.Arch, r.Class, r.Bytes, r.CacheHit, r.Coalesced, r.Rejected, r.Stale, r.Peer, r.PeerError, r.FetchError, r.Duration)
		}
	}

	origin := dirOrigin{root: *originDir}
	var handler http.Handler
	var stats func() proxy.Stats
	var node *cluster.Node
	if *self != "" {
		var err error
		node, err = cluster.NewNode(origin, cfg, cluster.Config{
			Self:               *self,
			Peers:              splitList(*peers),
			VirtualNodes:       *vnodes,
			Replication:        *replication,
			GossipInterval:     *gossipInterval,
			SuspectTimeout:     *suspectTimeout,
			HotThreshold:       *hotThreshold,
			PeerTimeout:        *peerTimeout,
			BreakerThreshold:   *breakerThreshold,
			BreakerCooldown:    *breakerCooldown,
			AttestKey:          []byte(*attestKey),
			AttestQuorum:       *attestQuorum,
			AttestPolicy:       *attestPolicy,
			AttestSampleRate:   *attestSampleRate,
			QuarantineAfter:    *quarantineAfter,
			PrefetchK:          *prefetchK,
			PrefetchBudget:     *prefetchBudget,
			PrefetchConfidence: *prefetchConfidence,
		})
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		handler = node.Handler()
		stats = node.Proxy().Stats
		log.Printf("dvmproxy: cluster node %s with %d members (ring seed 0, vnodes %d, replication %d, gossip %s, suspect timeout %s)",
			*self, node.Ring().Size(), *vnodes, *replication, *gossipInterval, *suspectTimeout)
		if *attestKey != "" {
			log.Printf("dvmproxy: quorum attestation on (quorum %d, policy %s): artifacts are sealed and re-verified on every peer hop",
				*attestQuorum, *attestPolicy)
		}
		if *prefetchK >= 0 {
			log.Printf("dvmproxy: predictive prefetch on (top-k %d, budget %dB, confidence %.2f; 0 = package default)",
				*prefetchK, *prefetchBudget, *prefetchConfidence)
		}
	} else {
		p := proxy.New(origin, cfg)
		handler = p.Handler()
		stats = p.Stats
	}

	summarize := func(prefix string) {
		s := stats()
		log.Printf("dvmproxy: %s requests=%d cacheHits=%d coalesced=%d originFetches=%d fetchRetries=%d fetchErrors=%d staleServed=%d shed=%d shedStale=%d coalescedFailures=%d flightsAbandoned=%d peerFetches=%d peerHits=%d ownerFetches=%d rejections=%d bytesIn=%d bytesOut=%d proxyTime=%s breaker=%s breakerTrips=%d",
			prefix, s.Requests, s.CacheHits, s.Coalesced, s.OriginFetches, s.FetchRetries, s.FetchErrors, s.StaleServed,
			s.Shed, s.ShedStale, s.CoalescedFailures, s.FlightsAbandoned,
			s.PeerFetches, s.PeerHits, s.OwnerFetches, s.Rejections, s.BytesIn, s.BytesOut, s.ProxyTime, s.Breaker.State, s.Breaker.Trips)
	}

	// The stats ticker is owned by the shutdown path: unlike time.Tick,
	// a Ticker plus a done channel actually terminates the goroutine.
	tickerDone := make(chan struct{})
	tickerStopped := make(chan struct{})
	if *statsInterval > 0 {
		ticker := time.NewTicker(*statsInterval)
		go func() {
			defer close(tickerStopped)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					summarize("summary")
				case <-tickerDone:
					return
				}
			}
		}()
	} else {
		close(tickerStopped)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
	}
	log.Printf("dvmproxy: serving %s on %s (cache=%v, filters=%d, fetch-timeout=%s, retries=%d, breaker-threshold=%d)",
		*originDir, *addr, !*noCache, len(pipe.Filters()), *fetchTimeout, *retries, *breakerThreshold)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("dvmproxy: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("dvmproxy: signal received, draining connections (up to %s)", *drainTimeout)
	close(tickerDone)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if node != nil && *drain {
		// Cluster goodbye before the HTTP server goes away: announce the
		// departure (peers re-route new fills immediately, 429 +
		// X-DVM-Draining covers the gossip gap) and push the cache to
		// each key's new owners. Within the same drain budget as the
		// connection drain — a slow handoff must not stall shutdown.
		log.Printf("dvmproxy: announcing departure and handing off cache")
		if err := node.Drain(shutdownCtx); err != nil {
			log.Printf("dvmproxy: cluster drain incomplete: %v", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dvmproxy: drain incomplete: %v", err)
	}
	if node != nil {
		node.Close()
	}
	<-tickerStopped
	summarize("final")
	log.Print("dvmproxy: shut down")
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
