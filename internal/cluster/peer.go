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
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
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

// The peer protocol's header keys in canonical form, and the one
// Content-Type value: response headers are built by direct assignment,
// and the value is shared read-only by every response (the server copies
// a header when it writes it).
var (
	epochKey         = http.CanonicalHeaderKey(epochHeader)
	frameContentType = []string{batchContentType}
)

// epochValue is what the peer hop keeps per membership epoch: the epoch
// header's value, the header of an untraced peer request, and every
// member's parsed target.
type epochValue struct {
	epoch   uint64
	value   []string
	request []string // name, value pairs
	targets map[string]*proxy.HopTarget
}

// currentEpoch returns the current epoch's values, built once per epoch
// and shared read-only, like frameContentType.
func (n *Node) currentEpoch() *epochValue {
	e := n.mship.Epoch()
	if v := n.epochHdr.Load(); v != nil && v.epoch == e {
		return v
	}
	value := []string{fmtEpoch(e)}
	v := &epochValue{epoch: e, value: value, request: []string{"Content-Type", batchContentType, epochKey, value[0]},
		targets: make(map[string]*proxy.HopTarget)}
	for _, peer := range n.mship.Peers(nil) {
		if to, err := proxy.ParseHopTarget(peer); err == nil {
			v.targets[peer] = to
		}
	}
	n.epochHdr.Store(v)
	return v
}

// target is peer's parsed target: the epoch's, or parsed now for a peer
// that is no member.
func (ev *epochValue) target(peer string) (*proxy.HopTarget, error) {
	if to := ev.targets[peer]; to != nil {
		return to, nil
	}
	return proxy.ParseHopTarget(peer)
}

// maxBatchBytes bounds one batch frame, either direction: a full-size
// class plus a prefetch piggyback, or a handoff transfer.
const maxBatchBytes = 48 << 20

// prefetchBudget bounds the piggybacked prefetch bytes per fill
// response, both offered by the requester and clamped by the owner.
const prefetchBudget = 256 << 10

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
	w.Header()[epochKey] = n.currentEpoch().value
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
	var answers [1]proxy.Result // a fill's answers, released once written
	filled := answers[:0]
	switch {
	case len(req.Entries) > 0:
		resp = n.ingestBatch(req)
	case req.Reason == proxy.ReasonFill && len(req.Classes) > 0:
		ctx := telemetry.WithTrace(r.Context(), tr)
		resp, filled = n.serveBatchFill(ctx, tr, req, filled)
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
	for i := range filled {
		filled[i].Release()
	}
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

// writeFrame answers a peer request with one frame, and recycles the
// encoder once it is written.
func writeFrame(w http.ResponseWriter, tr *telemetry.Trace, frame *frameEnc) {
	h := w.Header()
	tr.WriteSpans(h)
	h["Content-Type"] = frameContentType
	h["Content-Length"] = []string{strconv.Itoa(frame.size())}
	_ = frame.writeTo(w) // a requester that went away mid-write just retries
	frame.free()
}

// serveBatchFill answers the fill direction: the requested classes plus
// the prefetch piggyback. Each class's Result is appended to held, for
// the caller to release once the answer is written.
func (n *Node) serveBatchFill(ctx context.Context, tr *telemetry.Trace, req BatchRequest, held []proxy.Result) (BatchResponse, []proxy.Result) {
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
		held = append(held, res)
	}
	if n.predictor != nil && !req.NoPrefetch && len(served) > 0 && !n.local.UnderPressure() {
		n.piggybackPrefetch(&resp, req, served)
	}
	return resp, held
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
		n.m.PeerServed.Inc()
	}
	return res, err
}

// piggybackPrefetch appends the served classes' predicted successors to
// a fill response: local bytes only (Peek — no LRU distortion), attested
// entries only when attestation is on, bounded by the requester's byte
// budget, highest-confidence first.
func (n *Node) piggybackPrefetch(resp *BatchResponse, req BatchRequest, served []string) {
	budget := req.MaxBytes
	if budget <= 0 || budget > prefetchBudget {
		budget = prefetchBudget
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
		n.m.PrefetchPushed.Add(int64(pushed))
		n.m.PrefetchBatch.Observe(time.Duration(total))
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
		n.m.AttestRejects.Inc()
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
		n.m.HandoffKeys.Inc()
	case proxy.ReasonPrefetch:
		n.m.PrefetchReceived.Inc()
	default:
		n.m.ReplicaStored.Inc()
	}
	return nil
}

// doBatch is the one client hop of the peer protocol: POST breq as one
// frame to peer+path and decode the answer, read into a buffer sized from
// its Content-Length, in place (its entries may alias that buffer). With
// frame set, the answer is read into that recycled buffer's storage and
// the buffer is stored back through it; nil reads into a buffer of its
// own. Both directions piggyback the membership epoch. On a traced
// request the trace rides the request header and the peer's spans come
// back shifted into the local timeline; an untraced one sends and reads
// neither trace header. The request is one exchange of the node's hop,
// whose deadline is the earlier of ctx's and timeout from now, and a
// transport error names the peer. A 429 is returned as ErrOverloaded
// (with the draining note recorded) so callers treat it as a healthy shed.
func (n *Node) doBatch(ctx context.Context, peer, path string, breq BatchRequest, timeout time.Duration, frame *[]byte) (*BatchResponse, error) {
	tr := telemetry.FromContext(ctx)
	hopStart := tr.Elapsed()
	ev := n.currentEpoch()
	to, err := ev.target(peer)
	if err != nil {
		return nil, resilience.Permanent(fmt.Errorf("cluster: peer %s: %w", peer, err))
	}
	req := proxy.HopRequest{Method: http.MethodPost, Path: path, Header: ev.request, Timeout: timeout, Max: maxBatchBytes}
	if tr != nil {
		req.Header = append(ev.request[:len(ev.request):len(ev.request)], telemetry.TraceHeader, tr.ID())
	}
	if frame != nil {
		req.Into = *frame
	}
	enc := breq.encode()
	req.Body = enc.wire()
	a, err := n.peerHop.Exchange(ctx, to, &req)
	enc.free()
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	n.noteEpoch(a.Header(epochHeader))
	if a.Status != http.StatusOK {
		err := fmt.Errorf("cluster: peer %s: %d %s: %s", peer, a.Status, http.StatusText(a.Status), proxy.ErrorText(a.Body))
		if a.Status == http.StatusTooManyRequests {
			if a.Header(drainingHeader) == "1" {
				n.mship.NoteDraining(peer)
			}
			return nil, fmt.Errorf("%v: %w", err, proxy.ErrOverloaded)
		}
		return nil, err
	}
	if frame != nil {
		*frame = a.Body
	}
	var br BatchResponse
	if err := br.UnmarshalBinary(a.Body); err != nil {
		return nil, fmt.Errorf("cluster: peer %s: bad response: %w", peer, err)
	}
	if tr != nil {
		if spans, err := telemetry.DecodeSpans(a.Header(telemetry.TraceSpansHeader)); err == nil {
			tr.AppendShifted(spans, hopStart)
		}
	}
	return &br, nil
}

// hop is doBatch over the link the peer's entry keeps: an open link
// refuses at once (resilience.ErrOpen), a 429 (backpressure or drain) is
// a healthy shed, a caller that gave up proves nothing about the link,
// and anything else is a counted failure. A per-item error inside a good
// answer — a variant that cannot derive — is a success for the link. A
// link that opens pokes gossip. frame is doBatch's.
func (n *Node) hop(ctx context.Context, peer, path string, breq BatchRequest, frame *[]byte) (*BatchResponse, error) {
	if err := n.mship.admit(peer); err != nil {
		return nil, err
	}
	br, err := n.doBatch(ctx, peer, path, breq, n.cfg.PeerTimeout, frame)
	o := linkAlive
	switch {
	case err == nil:
	case errors.Is(err, proxy.ErrOverloaded):
		o = linkShed
	case ctx.Err() == nil:
		o = linkFailed
	default:
		o = linkAbandoned
	}
	if n.mship.settle(peer, o) && n.cfg.GossipInterval > 0 {
		n.pokeGossip()
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

// fetchPeer performs one fill against an owner over the batch protocol,
// over the owner's link (hop), and ingests the prefetch entries the
// owner piggybacked beside the fill. The answer is read into a recycled
// buffer. When its lone entry is the fill, the artifact aliases it and
// the buffer goes with the result (PeerResult.Frame); otherwise nothing
// aliases it and it goes back to the pool at once. A lone prefetch entry
// is not ingested: it would alias the buffer, and the store would pin
// the buffer's capacity while its budget counts only the class. No
// honest owner sends one, since serveBatchFill piggybacks only after the
// fill.
func (n *Node) fetchPeer(ctx context.Context, owner string, l proxy.Lookup) proxy.PeerResult {
	breq := BatchRequest{
		Reason:  proxy.ReasonFill,
		Member:  n.cfg.Self,
		Client:  l.Client,
		Arch:    l.Arch,
		Classes: []string{l.Class},
		// Decline the piggyback while under local pressure: speculative
		// ingestion must not compete with admission-controlled work.
		NoPrefetch: n.predictor == nil || n.local.UnderPressure(),
		MaxBytes:   prefetchBudget,
	}
	hopTimer := telemetry.StartTimer()
	frame := proxy.GetBuffer()
	br, err := n.hop(ctx, owner, BatchPath, breq, frame)
	if err != nil {
		proxy.PutBuffer(frame)
	}
	if errors.Is(err, resilience.ErrOpen) {
		return proxy.PeerResult{Err: err} // the link is presumed down: no hop was made
	}
	n.m.PeerFetch.Observe(hopTimer.Elapsed())
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
		case e.Reason == proxy.ReasonPrefetch && len(br.Entries) > 1: // copied out of the frame
			_ = n.ingest(e, owner) // a bad guess costs nothing but the guess
		}
	}
	if len(br.Entries) == 1 && res.Art != nil {
		res.Frame = frame
	} else {
		proxy.PutBuffer(frame) // no entry, several (each copied out), or a lone one that is not the fill
	}
	return res
}

// pushEntries posts ingest entries to one peer over its link (hop).
// Reports how many the peer accepted (best-effort; a shed or dead peer
// just means colder caches).
func (n *Node) pushEntries(ctx context.Context, peer string, entries []BatchEntry) int {
	if len(entries) == 0 {
		return 0
	}
	br, err := n.hop(ctx, peer, BatchPath, BatchRequest{Reason: entries[0].Reason, Member: n.cfg.Self, Entries: entries}, nil)
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
