package cluster

// The versioned peer protocol: one POST /peer/v2/batch exchange moves
// every kind of class payload between nodes — fill (owner serves a
// requested class), replica (push to a key's successors), handoff
// (membership-change cache transfer, both pull and drain-push), and
// prefetch (predicted successors piggybacked onto a fill) — and the same
// frame on POST /peer/v2/vote carries a quorum vote (attest.go). Request
// and response are one binary frame each (frame.go), sent with its
// Content-Length and read into a buffer of exactly that size. BatchEntry
// is the in-memory form of a proxy.Artifact in flight; toWire and
// fromWire are the only conversions, and fromWire re-verifies the seal,
// so bytes cannot touch a cache unverified whatever the reason they
// moved. A vote moves no artifact: its payload is derived from, never
// cached, and a voter keeps only its own output, on a proposal the
// owner sealed. The shared peerEnter middleware (server) and doBatch
// (client) carry what every hop needs: method check, epoch piggyback in
// both directions, draining and overload 429s, and trace spans.
//
// Prefetch piggyback: when an owner serves class A over a batch fill,
// it consults its successor predictor (internal/prefetch, fed by the
// fill stream itself and by monitor first-use profiles) and appends A's
// top-k successors — only entries it holds locally, only attested ones
// when attestation is on, bounded by the requester's byte budget — so
// the requester's next k misses become local hits: k round trips turned
// into one. The requester declines the piggyback (NoPrefetch) while its
// own admission control reports pressure, and the owner skips it while
// under pressure itself: speculation must never compete with real load.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dvm/internal/attest"
	"dvm/internal/proxy"
	"dvm/internal/resilience"
	"dvm/internal/telemetry"
)

const (
	// BatchPath is the batch route. The version is the frame's: v1 was a
	// JSON envelope and is gone, so an old-version peer answers 404 and
	// the hop is refused whole, never half-understood.
	BatchPath = "/peer/v2/batch"
	// batchContentType labels a frame body.
	batchContentType = "application/octet-stream"
	// VotePath is the vote route. It is its own, not a batch reason,
	// because a vote frame is read into a recycled buffer and dropped with
	// the request, where a batch frame becomes the artifacts it carries.
	VotePath = "/peer/v2/vote"
	// gossipV1Path is the versioned membership-exchange route.
	gossipV1Path = "/peer/v1/gossip"
)

// maxBatchBytes bounds one batch frame, either direction: a full-size
// class plus a prefetch piggyback, or a handoff transfer.
const maxBatchBytes = 48 << 20

// defaultPrefetchBudget bounds piggybacked prefetch bytes per fill
// response when Config leaves PrefetchBudget zero.
const defaultPrefetchBudget = 256 << 10

// BatchRequest is the one request every peer hop posts.
type BatchRequest struct {
	// Reason is the request's purpose: proxy.ReasonFill with Classes,
	// proxy.ReasonHandoff with Member (pull), any ingest push with Entries
	// (each carries its own reason), or reasonVote (Arch, a class, Vote).
	Reason string
	// Member is the requesting node's peer URL.
	Member string
	// Client is the originating client id on a fill — forwarded so the
	// owner's predictor learns per-client request sequences.
	Client string
	// Arch qualifies Classes on a fill.
	Arch string
	// Classes are the classes wanted (fill).
	Classes []string
	// MaxBytes bounds the response: the handoff transfer, or the
	// prefetch piggyback on a fill (server clamps to its own limit).
	MaxBytes int
	// NoPrefetch declines the prefetch piggyback on a fill (requester
	// under admission pressure, or prediction disabled).
	NoPrefetch bool
	// Entries is the ingest direction: replica push, drain-side handoff
	// push, or a standalone prefetch push.
	Entries []BatchEntry
	// Vote is a vote request's own part (only with Reason reasonVote).
	Vote Proposal
}

// BatchEntry is one class artifact in flight, with its trust metadata
// and the reason it is moving.
type BatchEntry struct {
	Arch  string
	Class string
	// Reason is one of the proxy.Reason* constants.
	Reason string
	Data   []byte
	// Att is the attestation as received, not yet verified (nil =
	// unattested; rejected on every hop when attestation is on). Its
	// Arch and Class do not travel: they are the entry's.
	Att *attest.Attestation
	// Rejected and Stale mirror the serving proxy's response flags
	// (fill entries only).
	Rejected bool
	Stale    bool
}

// BatchError reports one entry or class the server could not serve or
// accept; Status carries the per-item HTTP semantics (404 definitive
// miss, 429 shed, 400 rejected payload) one whole-response code cannot.
type BatchError struct {
	Arch   string
	Class  string
	Status int
	Error  string
}

// BatchResponse answers a batch request.
type BatchResponse struct {
	Entries []BatchEntry
	Errors  []BatchError
	// Vote is a voter's answer (nil on every other exchange).
	Vote *Ballot
}

// peerEnter is the shared middleware for every peer-protocol handler:
// method check, epoch piggyback both ways, draining 429, optional
// admission backpressure shed, and trace join (nil when the caller sent
// no trace: the hop then records and returns no spans). Returns ok=false
// with the response already written when the request must not proceed.
func (n *Node) peerEnter(w http.ResponseWriter, r *http.Request, method string, sheddable bool) (*telemetry.Trace, bool) {
	if r.Method != method {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, false
	}
	w.Header().Set(epochHeader, fmtEpoch(n.mship.Epoch()))
	if n.mship.Draining() {
		w.Header().Set(drainingHeader, "1")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusTooManyRequests)
		return nil, false
	}
	if sheddable && n.local.UnderPressure() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded, shed", http.StatusTooManyRequests)
		return nil, false
	}
	n.noteEpoch(r.Header.Get(epochHeader))
	return telemetry.JoinTrace(r.Header.Get(telemetry.TraceHeader)), true
}

// handleBatch serves POST /peer/v2/batch. Ingest pushes (Entries) are
// never pre-shed — the bytes are already on the wire and dropping them
// only re-costs the push; fills let the proxy's admission control
// decide (a cache hit needs no slot); handoff pulls shed under
// pressure.
func (n *Node) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr, ok := n.peerEnter(w, r, http.MethodPost, false)
	if !ok {
		return
	}
	var req BatchRequest
	if _, ok := readFrame(w, r, nil, maxBatchBytes, &req); !ok {
		return
	}
	var resp BatchResponse
	switch {
	case len(req.Entries) > 0:
		resp = n.ingestBatch(req)
	case req.Reason == proxy.ReasonFill && len(req.Classes) > 0:
		ctx := telemetry.WithTrace(r.Context(), tr)
		resp = n.serveBatchFill(ctx, tr, req)
	case req.Reason == proxy.ReasonHandoff && req.Member != "":
		if n.local.UnderPressure() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded, handoff shed", http.StatusTooManyRequests)
			return
		}
		maxBytes := req.MaxBytes
		if maxBytes <= 0 || maxBytes > handoffMaxBytes {
			maxBytes = handoffMaxBytes
		}
		for _, art := range n.handoffEntries(req.Member, maxBytes) {
			resp.Entries = append(resp.Entries, toWire(art, proxy.ReasonHandoff))
		}
	default:
		http.Error(w, "bad batch request", http.StatusBadRequest)
		return
	}
	writeFrame(w, tr, resp.encode())
}

// readFrame reads a peer request's frame, at most max bytes, into dst's
// storage (nil: a buffer of its own) and decodes it into req. A frame
// must declare its length (411) within the bound (413), and one that does
// not decode is a 400; on any of them readFrame answers and reports false.
func readFrame(w http.ResponseWriter, r *http.Request, dst []byte, max int, req *BatchRequest) ([]byte, bool) {
	if r.ContentLength < 0 {
		http.Error(w, "frame needs a Content-Length", http.StatusLengthRequired)
		return nil, false
	}
	body, err := proxy.ReadSizedInto(dst, r.Body, r.ContentLength, max)
	if errors.Is(err, proxy.ErrBodyTooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	if err == nil {
		err = req.UnmarshalBinary(body)
	}
	if err != nil {
		http.Error(w, "bad peer request: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// writeFrame answers a peer request with one frame.
func writeFrame(w http.ResponseWriter, tr *telemetry.Trace, frame *frameEnc) {
	tr.WriteSpans(w.Header())
	w.Header().Set("Content-Type", batchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(frame.size()))
	_ = frame.writeTo(w) // a requester that went away mid-write just retries
}

// serveBatchFill answers the fill direction: the requested classes plus
// the prefetch piggyback.
func (n *Node) serveBatchFill(ctx context.Context, tr *telemetry.Trace, req BatchRequest) BatchResponse {
	var resp BatchResponse
	client := req.Client
	if client == "" {
		client = "peer"
	}
	// Namespace the client id by the requesting member so identical ids
	// on different requester nodes do not interleave into one false
	// sequence in the predictor.
	seq := req.Member + "|" + client
	served := make([]string, 0, len(req.Classes))
	for _, class := range req.Classes {
		if class == "" || strings.Contains(class, "..") {
			resp.Errors = append(resp.Errors, BatchError{Arch: req.Arch, Class: class,
				Status: http.StatusBadRequest, Error: "bad class name"})
			continue
		}
		res, err := n.serveFill(ctx, seq, req.Arch, class)
		if err != nil {
			resp.Errors = append(resp.Errors, BatchError{Arch: req.Arch, Class: class,
				Status: proxy.StatusFor(err), Error: err.Error()})
			continue
		}
		e := toWire(res.Art, proxy.ReasonFill)
		e.Stale = res.Info.Stale
		resp.Entries = append(resp.Entries, e)
		served = append(served, class)
	}
	if n.predictor != nil && !req.NoPrefetch && len(served) > 0 && !n.local.UnderPressure() {
		n.piggybackPrefetch(&resp, req, served)
	}
	return resp
}

// serveFill answers one owner-side fill from this node's cache/origin,
// never re-forwarding (localOnly). The fill stream doubles as the
// predictor's live signal: misses routed to this owner are exactly the
// cold-start sequences worth predicting.
func (n *Node) serveFill(ctx context.Context, client, arch, class string) (proxy.Result, error) {
	if n.predictor != nil {
		n.predictor.ObserveRequest(client, arch, class)
	}
	res, err := n.local.Request(withLocalOnly(ctx), proxy.Lookup{Client: client, Arch: arch, Class: class})
	if err == nil {
		n.cPeerServed.Inc()
	}
	return res, err
}

// piggybackPrefetch appends the served classes' predicted successors to
// a fill response: local bytes only (Peek — no LRU distortion), attested
// entries only when attestation is on, bounded by the requester's byte
// budget, highest-confidence first.
func (n *Node) piggybackPrefetch(resp *BatchResponse, req BatchRequest, served []string) {
	budget := req.MaxBytes
	if budget <= 0 || budget > n.cfg.PrefetchBudget {
		budget = n.cfg.PrefetchBudget
	}
	have := make(map[string]bool, len(req.Classes))
	for _, c := range req.Classes {
		have[c] = true
	}
	total := 0
	pushed := 0
	for _, class := range served {
		for _, pred := range n.predictor.Predict(req.Arch, class) {
			if have[pred.Class] {
				continue
			}
			have[pred.Class] = true // dedup across served classes either way
			art := n.local.Peek(req.Arch, pred.Class)
			if art == nil || total+len(art.Data) > budget {
				continue
			}
			if n.authority != nil && art.Att == nil {
				// Never push unattested bytes into a fleet that verifies.
				continue
			}
			resp.Entries = append(resp.Entries, toWire(art, proxy.ReasonPrefetch))
			total += len(art.Data)
			pushed++
		}
	}
	if pushed > 0 {
		n.cPrefetchPushed.Add(int64(pushed))
		n.hPrefetchBatch.Observe(time.Duration(total))
	}
}

// toWire is the one Artifact → BatchEntry conversion.
func toWire(a *proxy.Artifact, reason string) BatchEntry {
	return BatchEntry{Arch: a.Arch, Class: a.Class, Reason: reason, Data: a.Data, Att: a.Att, Rejected: a.Rejected}
}

// fromWire is the one BatchEntry → Artifact conversion, and the trust
// gate of every hop: the entry must be well-formed and its seal must
// verify against its bytes, or it is counted and discarded. A seal that
// fails verification is corruption evidence against accuse, the peer
// that served it ("" = sender unknown); a missing attestation proves
// only a config mismatch.
func (n *Node) fromWire(e BatchEntry, accuse string) (*proxy.Artifact, error) {
	if e.Arch == "" || e.Class == "" || strings.Contains(e.Class, "..") ||
		len(e.Data) == 0 || len(e.Data) > maxPeerClassBytes {
		return nil, resilience.Permanent(fmt.Errorf("cluster: bad batch entry %s/%s (%d bytes)", e.Arch, e.Class, len(e.Data)))
	}
	att := e.Att
	if n.authority == nil {
		att = nil // a fleet that does not attest keeps no seals
	} else if err := n.authority.Verify(att, e.Arch, e.Class, e.Data); err != nil {
		n.cAttestRejects.Inc()
		if accuse != "" && errors.Is(err, attest.ErrVerify) {
			n.noteDivergence(accuse)
		}
		return nil, fmt.Errorf("cluster: entry %s failed attestation: %w", e.Class, err)
	}
	reason := e.Reason
	if reason == "" {
		reason = proxy.ReasonReplica
	}
	return &proxy.Artifact{Arch: e.Arch, Class: e.Class, Data: e.Data, Att: att, Rejected: e.Rejected, Source: reason}, nil
}

// ingestBatch accepts pushed entries (replica, handoff-push, prefetch).
// Rejected entries come back as BatchErrors; the push is best-effort,
// so a partial accept is a success with a shorter ledger.
func (n *Node) ingestBatch(req BatchRequest) BatchResponse {
	var resp BatchResponse
	for _, e := range req.Entries {
		if err := n.ingest(e, ""); err != nil {
			resp.Errors = append(resp.Errors, BatchError{Arch: e.Arch, Class: e.Class,
				Status: http.StatusBadRequest, Error: err.Error()})
		}
	}
	return resp
}

// ingest verifies and warms one entry that arrived without being asked
// for by a client — the single gate behind every push and pull. The
// proxy's placement rules and ledgers take it from there.
func (n *Node) ingest(e BatchEntry, accuse string) error {
	art, err := n.fromWire(e, accuse)
	if err != nil {
		return err
	}
	if n.local.Warm([]*proxy.Artifact{art}) == 0 {
		return nil // refused by the store (speculative, or caching off)
	}
	switch art.Source {
	case proxy.ReasonHandoff:
		n.cHandoffKeys.Inc()
	case proxy.ReasonPrefetch:
		n.cPrefetchReceived.Inc()
	default:
		n.cReplicaStored.Inc()
	}
	return nil
}

// doBatch is the one client hop of the peer protocol: POST breq as one
// frame to peer+path and decode the answer, read into a buffer sized from
// its Content-Length, in place (its entries may alias that buffer). Both
// directions piggyback the membership epoch. On a traced request the
// trace rides the request header and the peer's spans come back shifted
// into the local timeline; an untraced one sends and reads neither trace
// header. A 429 is returned as ErrOverloaded (with the draining note
// recorded) so callers treat it as a healthy shed.
func (n *Node) doBatch(ctx context.Context, peer, path string, breq BatchRequest, timeout time.Duration) (*BatchResponse, error) {
	tr := telemetry.FromContext(ctx)
	hopStart := tr.Elapsed()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	frame := breq.encode()
	body := frame.meta
	if len(frame.runs) > 0 {
		// The transport sends a *bytes.Reader body with its headers in one
		// write, any other reader through a header flush and a copy buffer of
		// its own: join the runs in a recycled buffer, freed once written.
		buf, wrote := proxy.GetBuffer(), new(atomic.Bool)
		body = frame.appendTo((*buf)[:0])
		// Only a write that succeeded frees it: after a failed one the
		// transport may replay the body from the same bytes.
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{WroteRequest: func(i httptrace.WroteRequestInfo) {
			if i.Err == nil {
				wrote.Store(true)
			}
		}})
		defer func() {
			if *buf = body; wrote.Load() {
				proxy.PutBuffer(buf)
			}
		}()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", batchContentType)
	req.Header.Set(epochHeader, fmtEpoch(n.mship.Epoch()))
	if tr != nil {
		req.Header.Set(telemetry.TraceHeader, tr.ID())
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	n.noteEpoch(resp.Header.Get(epochHeader))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		err := fmt.Errorf("cluster: peer %s: %s: %s", peer, resp.Status, strings.TrimSpace(string(b)))
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get(drainingHeader) == "1" {
				n.mship.NoteDraining(peer)
			}
			return nil, fmt.Errorf("%v: %w", err, proxy.ErrOverloaded)
		}
		return nil, err
	}
	answer, err := proxy.ReadSized(resp.Body, resp.ContentLength, maxBatchBytes)
	var br BatchResponse
	if err == nil {
		err = br.UnmarshalBinary(answer)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: bad response: %w", peer, err)
	}
	if tr != nil {
		if spans, err := telemetry.DecodeSpans(resp.Header.Get(telemetry.TraceSpansHeader)); err == nil {
			tr.AppendShifted(spans, hopStart)
		}
	}
	return &br, nil
}

// hop is doBatch under peer's circuit breaker: a 429 (backpressure or
// drain) is a healthy shed, a caller that gave up (its context ended)
// proves nothing about the link, and anything else feeds the breaker like
// any other peer-protocol failure. A per-item error inside a good answer
// — a variant that cannot derive — is a success for the link.
func (n *Node) hop(ctx context.Context, peer, path string, breq BatchRequest) (*BatchResponse, error) {
	b := n.breaker(peer)
	if err := b.Allow(); err != nil {
		return nil, err
	}
	br, err := n.doBatch(ctx, peer, path, breq, n.cfg.PeerTimeout)
	switch {
	case err == nil:
		b.Success()
		n.mship.Refute(peer) // direct evidence of life
	case errors.Is(err, proxy.ErrOverloaded):
		b.Success()
	case ctx.Err() == nil:
		b.Failure()
	}
	return br, err
}

// entryError maps a per-item BatchError back to the error semantics the
// fill chain understands (404 definitive, 429 healthy shed).
func entryError(peer string, be BatchError) error {
	err := fmt.Errorf("cluster: peer %s: %s: %d %s", peer, be.Class, be.Status, be.Error)
	switch be.Status {
	case http.StatusNotFound:
		return resilience.Permanent(err)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%v: %w", err, proxy.ErrOverloaded)
	}
	return err
}

// fetchPeer performs one fill against an owner over the batch protocol
// and ingests whatever prefetch entries the owner piggybacked.
func (n *Node) fetchPeer(ctx context.Context, owner string, l proxy.Lookup) proxy.PeerResult {
	hopTimer := telemetry.StartTimer()
	defer func() { n.hPeerFetch.Observe(hopTimer.Elapsed()) }()
	breq := BatchRequest{
		Reason:  proxy.ReasonFill,
		Member:  n.cfg.Self,
		Client:  l.Client,
		Arch:    l.Arch,
		Classes: []string{l.Class},
		// Decline the piggyback while under local pressure: speculative
		// ingestion must not compete with admission-controlled work.
		NoPrefetch: n.predictor == nil || n.local.UnderPressure(),
		MaxBytes:   n.cfg.PrefetchBudget,
	}
	br, err := n.doBatch(ctx, owner, BatchPath, breq, n.cfg.PeerTimeout)
	if err != nil {
		return proxy.PeerResult{Err: err}
	}
	res := proxy.PeerResult{Err: fmt.Errorf("cluster: peer %s: no entry for %s", owner, l.Class)}
	for _, be := range br.Errors {
		if be.Class == l.Class {
			res.Err = entryError(owner, be)
		}
	}
	for _, e := range br.Entries {
		switch {
		case e.Reason == proxy.ReasonFill && e.Arch == l.Arch && e.Class == l.Class:
			if art, err := n.fromWire(e, owner); err != nil {
				res.Err = fmt.Errorf("cluster: peer %s: %w", owner, err)
			} else {
				res = proxy.PeerResult{Art: art, Stale: e.Stale}
			}
		case e.Reason == proxy.ReasonPrefetch:
			_ = n.ingest(e, owner) // a bad guess costs nothing but the guess
		}
	}
	return res
}

// pushEntries posts ingest entries to one peer under its breaker.
// Reports how many the peer accepted (best-effort; a shed or dead peer
// just means colder caches).
func (n *Node) pushEntries(ctx context.Context, peer string, entries []BatchEntry) int {
	if len(entries) == 0 {
		return 0
	}
	br, err := n.hop(ctx, peer, BatchPath, BatchRequest{Reason: entries[0].Reason, Member: n.cfg.Self, Entries: entries})
	if err != nil {
		return 0
	}
	return len(entries) - len(br.Errors)
}

// FeedProfile replays a class-transition order (optimize.ClassOrder of
// a monitor first-use profile) into this node's predictor: the offline
// half of the prediction signal, alongside the live fill stream.
func (n *Node) FeedProfile(arch string, classes []string) {
	if n.predictor != nil {
		n.predictor.ObserveOrder(arch, classes)
	}
}

// PrefetchPushed returns how many successor entries this node has
// piggybacked onto fills it served (diagnostics).
func (n *Node) PrefetchPushed() int64 { return n.cPrefetchPushed.Load() }

// PrefetchReceived returns how many piggybacked entries this node has
// accepted into its cache (diagnostics).
func (n *Node) PrefetchReceived() int64 { return n.cPrefetchReceived.Load() }
