package cluster

// Quorum attestation: the cluster half of internal/attest. The proxy
// asks its fleet to Seal every artifact it produces; for keys the
// policy selects, the owner POSTs the payload the artifact was derived
// from to ring successors as a vote frame on VotePath, each variant
// re-derives it and answers with the SHA-256 digest of what it would have
// served, and the owner compares votes. Agreement seals the artifact under the
// service key; every later hop that moves the bytes (peer fill,
// replica push, handoff) re-verifies that seal instead of trusting the
// wire.
//
// The voter is the replica: a key's first successor is both its first
// variant and its first replica owner. In a quorum-2 first round the
// owner's vote request carries a proposal: SHA-256 of the owner's digest
// (the commitment) and the voters it will seal under, [owner, voter],
// both under the owner's service MAC. A voter that owns the key in its own
// ring view, whose digest hashes to the commitment and whose proposal MAC
// verifies seals its own output exactly as the owner will, warms it as a
// replica and answers "kept"; the owner pushes only to the owners that did
// not. The commitment can be checked but not copied, so a voter cannot
// agree without deriving the artifact; the MAC means only a key holder can
// make an offer, so a request from anyone else can learn a digest but
// never place bytes in a cache.
//
// Divergence is corruption evidence, not a transport failure. The
// minority voter is flagged in the authority's suspicion ledger; after
// K divergences the peer is quarantined — excluded from variant
// selection and skipped by the fill chain — and surfaced in /healthz.
// A divergent first round is re-run at a higher quorum (one extra
// variant at a time, with no offer) until a strict majority emerges. If
// the majority contradicts the *local* output, the flight fails: a node
// never serves bytes its own fleet outvoted. If no majority exists,
// nothing can be trusted and the flight fails too.
//
// Variant dispatch reuses the peer machinery end to end (hop): per-peer
// circuit breakers, admission backpressure (a pressured or draining
// variant sheds with 429 and the owner moves to the next candidate),
// epoch piggybacking, and trace spans across the hop. A variant that
// cannot derive answers with a per-item error, which costs the link
// nothing: the peer is healthy, it only lacks the means to vote.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"dvm/internal/attest"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

const reasonVote = "vote" // a vote request frame's reason

// Proposal is a vote request's own part. Payload is what the variant
// derives from under Mode: origin bytes in transform mode, an already
// transformed base-architecture artifact in compile mode, which is how
// the shared AOT code cache keeps the N-variant trust property without
// shipping origin bytes a second time. An offer to keep adds Commit,
// SHA-256 of the owner's hex digest, the Voters the owner will seal
// under, and Seal, the owner's service MAC over both
// (attest.Authority.SealProposal); without an offer all three are empty.
type Proposal struct {
	Mode    proxy.SealMode
	Payload []byte
	Commit  []byte
	Voters  []string
	Seal    []byte
}

// Ballot is a voter's answer: its output's hex digest, and whether it kept it.
type Ballot struct {
	Digest string
	Kept   bool
}

// maxAttestExtraRounds bounds tie-break escalation: after the initial
// quorum, at most this many extra variants are consulted one at a time
// before the round is declared unresolvable.
const maxAttestExtraRounds = 2

// Seal implements proxy.Fleet: the quorum protocol for one artifact this
// node just produced (attest), then copies for the key's other owners
// that did not keep their own (replicate, handoff.go).
func (n *Node) Seal(ctx context.Context, art *proxy.Artifact, payload []byte, mode proxy.SealMode) (*attest.Attestation, error) {
	att, kept, err := n.attest(ctx, art, payload, mode)
	if err == nil {
		n.replicate(art, att, kept)
	}
	return att, err
}

// attest dispatches payload to ring successors under mode, tallies their
// digests against the local bytes, escalates ties and seals on
// agreement; it also names the voters that kept their own copy under that
// seal. Runs on the flight goroutine under the admission slot, so the
// variants' round-trips are part of the key's one-time service cost.
func (n *Node) attest(ctx context.Context, art *proxy.Artifact, payload []byte, mode proxy.SealMode) (*attest.Attestation, []string, error) {
	if n.authority == nil {
		return nil, nil, nil
	}
	// The artifact is hashed once: the digest is both the owner's vote and
	// what the seal covers.
	arch, class := art.Arch, art.Class
	local := attest.Digest(art.Data)
	want := n.authority.QuorumFor(arch, class)
	if want <= 1 {
		return n.authority.AttestDigest(arch, class, local, 1, []string{n.cfg.Self}), nil, nil
	}
	offer := Proposal{Mode: mode, Payload: payload}
	if want == 2 && n.cfg.Replication > 1 {
		// One agreeing vote decides the round, so the seal is known before
		// the vote: offer the voter to keep its output under it. The
		// commitment is a hash, not the digest, so the voter still has to
		// derive the artifact to agree.
		commit := sha256.Sum256([]byte(local))
		offer.Commit = commit[:]
	}
	votes, kept, rest := n.collectVotes(ctx, arch, class, offer, n.variantCandidates(arch, class), want-1)
	if len(votes) == 0 {
		// Every candidate was down, shedding, refusing or already
		// quarantined. Availability wins: seal at quorum 1 (counted, so a
		// fleet that silently stopped cross-checking is visible in telemetry).
		n.m.AttestDegraded.Inc()
		return n.authority.AttestDigest(arch, class, local, 1, []string{n.cfg.Self}), nil, nil
	}
	majority, minority := attest.Tally(n.cfg.Self, local, votes)
	// Tie-break: a split vote re-runs at a higher quorum, one extra
	// variant per round (and no offer), until a strict majority emerges or
	// the candidate pool (or the round budget) is exhausted.
	for extra := 0; majority == "" && extra < maxAttestExtraRounds && len(rest) > 0; extra++ {
		var more []attest.Vote
		more, _, rest = n.collectVotes(ctx, arch, class, Proposal{Mode: mode, Payload: payload}, rest, 1)
		if len(more) == 0 {
			break
		}
		votes = append(votes, more...)
		majority, minority = attest.Tally(n.cfg.Self, local, votes)
	}
	if majority == "" {
		for _, v := range votes {
			if v.Digest != local {
				n.noteDivergence(v.Voter)
			}
		}
		return nil, nil, fmt.Errorf("%w: local %.12s vs %d variant votes", attest.ErrNoQuorum, local, len(votes))
	}
	for _, m := range minority {
		n.noteDivergence(m)
	}
	if majority != local {
		// This node is the minority: its own pipeline (or memory, or
		// compiler) produced bytes the fleet outvoted. The flight fails —
		// corrupt output must never be cached or served — and the local
		// divergence is in the ledger for the operator to see.
		return nil, nil, fmt.Errorf("%w: local %.12s, fleet agreed on %.12s", attest.ErrLocalDivergence, local, majority)
	}
	voters := []string{n.cfg.Self}
	for _, v := range votes {
		if v.Digest == majority {
			voters = append(voters, v.Voter)
		} else {
			kept = slices.DeleteFunc(kept, func(k string) bool { return k == v.Voter }) // its "kept" is void
		}
	}
	return n.authority.AttestDigest(arch, class, local, len(voters), voters), kept, nil
}

// variantCandidates lists the peers eligible to vote on a key: the
// ring's successor chain for the key (deterministic, so repeated rounds
// for one key ask the same nodes first), minus self, minus quarantined
// and non-alive members.
func (n *Node) variantCandidates(arch, class string) []string {
	ring := n.currentRing()
	owners := ring.Owners(KeyFor(arch, class), ring.Size())
	out := make([]string, 0, len(owners))
	for _, o := range owners {
		if o == n.cfg.Self || n.authority.Quarantined(o) {
			continue
		}
		if n.mship.State(o) != stateAlive {
			continue
		}
		out = append(out, o)
	}
	return out
}

// collectVotes gathers up to need variant votes from candidates,
// dispatching concurrently and refilling from the remaining pool as
// variants fail, shed or refuse. An offer (prop.Commit set) names
// [self, candidate] as the voters and is sealed per candidate. Returns the
// votes, the voters that kept their output, and the unused candidates
// (the tie-break pool).
func (n *Node) collectVotes(ctx context.Context, arch, class string, prop Proposal, candidates []string, need int) (votes []attest.Vote, kept, rest []string) {
	votes = make([]attest.Vote, 0, need)
	i := 0
	for len(votes) < need && i < len(candidates) {
		batch := candidates[i:]
		if want := need - len(votes); len(batch) > want {
			batch = batch[:want]
		}
		i += len(batch)
		type result struct {
			peer   string
			ballot *Ballot
		}
		ch := make(chan result, len(batch))
		for _, peer := range batch {
			go func(peer string, prop Proposal) {
				if prop.Commit != nil {
					prop.Voters = []string{n.cfg.Self, peer}
					prop.Seal = n.authority.SealProposal(arch, class, string(prop.Mode), prop.Commit, prop.Voters)
				}
				span := telemetry.FromContext(ctx).StartSpan(n.cfg.Self, "attest.variant")
				br, err := n.hop(ctx, peer, VotePath, BatchRequest{Reason: reasonVote, Member: n.cfg.Self, Arch: arch, Classes: []string{class}, Vote: prop}, nil)
				span.End()
				if errors.Is(err, proxy.ErrOverloaded) {
					// Deliberate shed: the variant is healthy but loaded or leaving.
					n.m.PeerBackpressure.Inc()
				}
				if err != nil {
					br = &BatchResponse{} // down or shedding: no ballot
				}
				ch <- result{peer, br.Vote}
			}(peer, prop)
		}
		for range batch {
			if r := <-ch; r.ballot != nil {
				votes = append(votes, attest.Vote{Voter: r.peer, Digest: r.ballot.Digest})
				if r.ballot.Kept {
					kept = append(kept, r.peer)
				}
			}
		}
	}
	return votes, kept, candidates[i:]
}

// handleVote answers POST /peer/v2/vote: run the posted payload through
// this node's own pipeline (or compiler) and answer with the digest of
// the output — an independent opinion — keeping the output as the key's
// replica only where keeps allows it. The frame and the output live in
// recycled buffers; only a kept copy outlives the request. Admission
// pressure and draining shed the request (429): cross-checking must never
// out-compete serving clients.
func (n *Node) handleVote(w http.ResponseWriter, r *http.Request) {
	tr, ok := n.peerEnter(w, r, http.MethodPost, true)
	if !ok {
		return
	}
	frame, buf := proxy.GetBuffer(), proxy.GetBuffer()
	defer proxy.PutBuffer(frame)
	defer proxy.PutBuffer(buf)
	// A vote moves one class, so its whole frame is bounded like one class.
	var req BatchRequest
	body, ok := readFrame(w, r, *frame, maxPeerClassBytes, &req)
	if !ok {
		return
	}
	*frame = body
	if req.Reason != reasonVote || req.Arch == "" || len(req.Classes) != 1 ||
		req.Classes[0] == "" || strings.Contains(req.Classes[0], "..") {
		http.Error(w, "bad vote request", http.StatusBadRequest)
		return
	}
	arch, class, prop := req.Arch, req.Classes[0], &req.Vote
	stage := "attest.transform"
	if prop.Mode == proxy.SealCompile {
		stage = "attest.compile"
	}
	span := tr.StartSpan(n.cfg.Self, stage)
	out, rejected, err := n.local.Derive(telemetry.WithTrace(r.Context(), tr), (*buf)[:0], arch, class, prop.Payload, prop.Mode)
	span.End()
	var resp BatchResponse
	if err != nil {
		resp.Errors = []BatchError{{Arch: arch, Class: class, Status: http.StatusUnprocessableEntity, Error: err.Error()}}
	} else {
		*buf = out
		n.m.AttestVariants.Inc()
		resp.Vote = &Ballot{Digest: attest.Digest(out)}
		if n.keeps(&req, resp.Vote.Digest, len(out)) {
			// An exact-size copy: out is a recycled buffer.
			art := &proxy.Artifact{Arch: arch, Class: class, Data: append(make([]byte, 0, len(out)), out...),
				Att:      n.authority.AttestDigest(arch, class, resp.Vote.Digest, len(prop.Voters), prop.Voters),
				Rejected: rejected, Source: proxy.ReasonReplica}
			if resp.Vote.Kept = n.local.Warm([]*proxy.Artifact{art}) > 0; resp.Vote.Kept {
				n.m.ReplicaStored.Inc()
			}
		}
	}
	writeFrame(w, tr, resp.encode())
}

// keeps decides whether a voter keeps its output (digest, size bytes) as
// the key's replica under the seal the owner is about to produce. Every
// condition must hold: the key is one of this node's own R owners; the
// output is no larger than any peer would accept from the wire; the
// proposal names [requester, self]; the output hashes to its commitment;
// and a key holder made it. Only the last makes the offer trustworthy: the
// rest come from the request, so anyone who can post a vote could meet
// them — asking first without a commitment to learn the digest — but
// without the service key cannot seal a proposal. The MAC need not cover
// the payload: the commitment already fixes the bytes kept, whatever
// payload they were derived from.
func (n *Node) keeps(req *BatchRequest, digest string, size int) bool {
	prop := &req.Vote
	if n.authority == nil || prop.Commit == nil || size > maxPeerClassBytes ||
		!slices.Equal(prop.Voters, []string{req.Member, n.cfg.Self}) {
		return false
	}
	commit := sha256.Sum256([]byte(digest))
	return bytes.Equal(prop.Commit, commit[:]) &&
		slices.Contains(n.currentRing().Owners(KeyFor(req.Arch, req.Classes[0]), n.cfg.Replication), n.cfg.Self) &&
		n.authority.VerifyProposal(req.Arch, req.Classes[0], string(prop.Mode), prop.Commit, prop.Voters, prop.Seal)
}

// noteDivergence records one minority vote (or one corrupt payload
// served) by peer: the divergence counter, the suspicion ledger, and —
// on crossing the threshold — the quarantine log line. Self-divergence
// lands in the ledger too; the operator sees a sick node flag itself.
func (n *Node) noteDivergence(peer string) {
	n.m.AttestDivergence.Inc()
	already := n.authority.Quarantined(peer)
	if n.authority.Divergence(peer) && !already {
		n.m.AttestQuarantines.Inc()
	}
}

// Suspicions exposes the authority's ledger (nil authority = none).
func (n *Node) Suspicions() []attest.Suspicion {
	if n.authority == nil {
		return nil
	}
	return n.authority.Suspicions()
}

// Quarantined reports whether peer has crossed the divergence
// threshold on this node's ledger.
func (n *Node) Quarantined(peer string) bool {
	return n.authority != nil && n.authority.Quarantined(peer)
}
