// Command dvmproxy runs the DVM service proxy: it intercepts class
// requests, applies the static service pipeline (verification, security
// rewriting, auditing, compilation), caches results, and serves clients
// over HTTP — the organization's single logical point of control.
//
// Usage:
//
//	dvmproxy -origin ./classes [-addr :8642] [-policy policy.xml]
//	         [-no-cache | -disk-cache dir -cache-ttl 0] [-no-compile]
//	         [-audit-log proxy-audit.log] [-stats-interval 1m]
//	         [-fetch-timeout 10s] [-retries 2] [-breaker-threshold 5]
//	         [-max-queue 256 -queue-deadline 100ms]
//	         [-self http://10.0.0.1:8642 -peers http://10.0.0.1:8642,http://10.0.0.2:8642]
//	         [-replication 2] [-hot-threshold 8]
//	         [-attest-key secret -attest-quorum 2]
//
// compose turns the flags into the pipeline (proxy.ServicePipeline, the
// one the benchmark measures), the proxy.Config and the cluster.Config;
// main serves them. Timings without a flag are package defaults.
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
// key across the whole fleet. A fill answer carries the requested class
// and nothing else. Every member places keys on the same ring (512
// virtual nodes per member, seed 0), so no two members can disagree on
// who owns a key. Membership is live: -peers is
// only a seed list, gossip (every 500ms) discovers the rest of the
// fleet, detects failures (suspect, then dead after 3s), and rebalances
// the ring on joins and leaves. Each key is replicated to -replication
// owners, so a node death degrades to a warm replica hit. A peer that
// stops answering opens its link after five failures (feeding failure
// suspicion) and this node degrades to local fetches. /healthz shows the live
// membership with per-member state and the view epoch.
//
// With -attest-key the fleet cross-checks its rewrites: an owner-side
// miss dispatches the origin bytes to -attest-quorum minus one ring
// successors, each votes with its own pipeline's output digest, and on
// agreement the artifact is sealed under the shared key. Every key runs
// at the quorum. Every peer hop (fill, replica push, handoff)
// re-verifies the seal before trusting the bytes; a peer whose bytes or
// votes diverge is quarantined after three strikes and surfaced in
// /healthz.
//
// The server drains gracefully on SIGINT/SIGTERM: a cluster node first
// announces its departure and hands its cache off to each key's new
// owners, then the listener closes and in-flight requests get 15s to
// finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"dvm/internal/cluster"
	"dvm/internal/proxy"
	"dvm/internal/security"
	"dvm/internal/telemetry"
)

// The server's fixed timings.
const (
	readHeaderTimeout = 5 * time.Second  // bound on reading a request's headers (slowloris guard)
	idleTimeout       = 2 * time.Minute  // keep-alive idle connection timeout
	drainTimeout      = 15 * time.Second // how long the cluster goodbye and in-flight requests get on shutdown
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

// service is what one dvmproxy run serves.
type service struct {
	addr          string
	originDir     string
	auditLog      string
	statsInterval time.Duration
	proxy         proxy.Config   // its Pipeline is proxy.ServicePipeline
	cluster       cluster.Config // Self == "": a standalone proxy
}

// compose parses args into the service. Every error it returns has
// already been reported on stderr; flag.ErrHelp means -h was asked for.
func compose(args []string, stderr io.Writer) (*service, error) {
	fl := flag.NewFlagSet("dvmproxy", flag.ContinueOnError)
	fl.SetOutput(stderr)
	s := &service{}
	var (
		policyPath, peers, attestKey string
		noCache, noCompile           bool
	)
	pc, cc := &s.proxy, &s.cluster

	fl.StringVar(&s.addr, "addr", ":8642", "HTTP listen address")
	fl.StringVar(&s.originDir, "origin", "", "directory serving original .class files (required)")
	fl.StringVar(&policyPath, "policy", "", "security policy XML (omit to disable the security filter)")
	fl.StringVar(&pc.DiskCacheDir, "disk-cache", "", "directory backing the cache on disk (survives restarts)")
	fl.StringVar(&s.auditLog, "audit-log", "", "append the request audit trail to this file")
	fl.StringVar(&cc.Self, "self", "", "this node's peer URL in a sharded proxy cluster (e.g. http://10.0.0.1:8642); empty = standalone")
	fl.StringVar(&peers, "peers", "", "comma-separated seed peer URLs; gossip discovers the rest of the fleet from any live subset")
	fl.StringVar(&attestKey, "attest-key", "", "shared service key enabling quorum attestation: artifacts are sealed under it and re-verified on every peer hop (all members must agree; empty = attestation off)")

	fl.BoolVar(&noCache, "no-cache", false, "disable the proxy result cache")
	fl.DurationVar(&pc.CacheTTL, "cache-ttl", 0, "cache entry freshness window; expired entries are revalidated, and served stale when the origin is down (0 = never expire)")
	fl.BoolVar(&noCompile, "no-compile", false, "disable the AOT compilation filter")

	fl.DurationVar(&pc.Origin.Timeout, "fetch-timeout", 10*time.Second, "per-attempt origin fetch deadline (0 = none)")
	fl.IntVar(&pc.Origin.Retries, "retries", 2, "origin fetch retries after the first failed attempt")
	fl.IntVar(&pc.Origin.BreakerThreshold, "breaker-threshold", 5, "consecutive failures that trip the origin breaker (-1 disables)")

	fl.IntVar(&cc.Replication, "replication", 0, "ring owners per key: primary plus warm replicas (0 = default 2, 1 = no replication)")
	fl.IntVar(&cc.HotThreshold, "hot-threshold", 0, "peer fills of one key before it is replicated into the local cache (0 = default 8, -1 = never)")
	fl.IntVar(&cc.AttestQuorum, "attest-quorum", 2, "variants per attested key, owner included (1 = seal locally without cross-checking)")

	fl.IntVar(&pc.MaxQueue, "max-queue", 0, "admission control: max miss requests queued for a service slot (0 disables admission)")
	fl.DurationVar(&pc.QueueDeadline, "queue-deadline", 0, "admission control: max wait for a service slot before shedding (0 = 1s)")

	fl.DurationVar(&s.statsInterval, "stats-interval", time.Minute, "periodic stats summary interval (0 disables)")

	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	refuse := func(format string, a ...any) (*service, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "dvmproxy: %v\n", err)
		return nil, err
	}
	switch {
	case s.originDir == "":
		return refuse("-origin is required (-h lists the flags)")
	case cc.Self == "" && peers != "":
		return refuse("-peers requires -self")
	case noCache && pc.DiskCacheDir != "":
		return refuse("-disk-cache needs the cache that -no-cache turns off")
	case noCache && pc.CacheTTL != 0:
		return refuse("-cache-ttl needs the cache that -no-cache turns off")
	}

	var pol *security.Policy
	if policyPath != "" {
		data, err := os.ReadFile(policyPath)
		if err == nil {
			pol, err = security.ParsePolicy(data)
		}
		if err != nil {
			return refuse("-policy: %v", err)
		}
	}
	pc.Pipeline = proxy.ServicePipeline(pol, !noCompile)
	pc.CacheEnabled = !noCache
	cc.Peers = splitList(peers)
	cc.AttestKey = []byte(attestKey)
	return s, nil
}

func main() {
	s, err := compose(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2)
	}
	if s.auditLog != "" {
		f, err := os.OpenFile(s.auditLog, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		defer f.Close()
		s.proxy.OnAudit = func(r proxy.RequestRecord) {
			fmt.Fprintf(f, "client=%s arch=%s class=%s bytes=%d cached=%v coalesced=%v rejected=%v stale=%v peer=%q peerErr=%q fetchErr=%q dur=%s\n",
				r.Client, r.Arch, r.Class, r.Bytes, r.CacheHit, r.Coalesced, r.Rejected, r.Stale, r.Peer, r.PeerError, r.FetchError, r.Duration)
		}
	}

	origin := dirOrigin{root: s.originDir}
	var handler http.Handler
	var reg *telemetry.Registry
	var node *cluster.Node
	if s.cluster.Self != "" {
		node, err = cluster.NewNode(origin, s.proxy, s.cluster)
		if err != nil {
			log.Fatalf("dvmproxy: %v", err)
		}
		handler, reg = node.Handler(), node.Proxy().Telemetry()
		log.Printf("dvmproxy: cluster node %s with %d members (replication %d; 0 = package default)",
			s.cluster.Self, node.Ring().Size(), s.cluster.Replication)
		if len(s.cluster.AttestKey) > 0 {
			log.Printf("dvmproxy: quorum attestation on (quorum %d): artifacts are sealed and re-verified on every peer hop",
				s.cluster.AttestQuorum)
		}
	} else {
		p := proxy.New(origin, s.proxy)
		handler, reg = p.Handler(), p.Telemetry()
	}

	// summarize logs every declared counter, sorted by metric name.
	summarize := func(prefix string) {
		cv := reg.CounterValues()
		names := make([]string, 0, len(cv))
		for name := range cv {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, cv[name])
		}
		log.Printf("dvmproxy: %s%s", prefix, b.String())
	}

	// The stats ticker is owned by the shutdown path: unlike time.Tick,
	// a Ticker plus a done channel actually terminates the goroutine.
	tickerDone := make(chan struct{})
	tickerStopped := make(chan struct{})
	if s.statsInterval > 0 {
		ticker := time.NewTicker(s.statsInterval)
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

	srv := &proxy.HopServer{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	l, err := net.Listen("tcp", s.addr)
	if err != nil {
		log.Fatalf("dvmproxy: %v", err)
	}
	log.Printf("dvmproxy: serving %s on %s (cache=%v, filters=%d, fetch-timeout=%s, retries=%d, breaker-threshold=%d)",
		s.originDir, s.addr, s.proxy.CacheEnabled, len(s.proxy.Pipeline.Filters()), s.proxy.Origin.Timeout, s.proxy.Origin.Retries, s.proxy.Origin.BreakerThreshold)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		log.Fatalf("dvmproxy: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("dvmproxy: signal received, draining connections (up to %s)", drainTimeout)
	close(tickerDone)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if node != nil {
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
