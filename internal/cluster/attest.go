package cluster

// Quorum attestation: the cluster half of internal/attest. The proxy
// asks its fleet to Seal every artifact it produces; for keys the
// policy selects, the owner POSTs the payload the artifact was derived
// from to ring successors over /peer/v1/attest/, each variant re-derives
// it and answers with only the SHA-256 digest of what it would have
// served, and the owner compares votes. Agreement seals the artifact under the
// service key; every later hop that moves the bytes (peer fill,
// replica push, handoff) re-verifies that seal instead of trusting the
// wire.
//
// Divergence is corruption evidence, not a transport failure. The
// minority voter is flagged in the authority's suspicion ledger; after
// K divergences the peer is quarantined — excluded from variant
// selection and skipped by the fill chain — and surfaced in /healthz.
// A divergent first round is re-run at a higher quorum (one extra
// variant at a time) until a strict majority emerges. If the majority
// contradicts the *local* output, the flight fails: a node never
// serves bytes its own fleet outvoted. If no majority exists, nothing
// can be trusted and the flight fails too.
//
// Variant dispatch reuses the peer machinery end to end (peerPost):
// per-peer circuit breakers, admission backpressure (a pressured or
// draining variant sheds with 429 and the owner moves to the next
// candidate), epoch piggybacking, and trace spans across the hop.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"dvm/internal/attest"
	"dvm/internal/proxy"
	"dvm/internal/telemetry"
)

// attestVote is the variant response wire form: POST
// /peer/v1/attest/<name>.class with X-DVM-Arch and the payload bytes as
// the body answers JSON {"digest": "<hex sha-256>"} of the variant's
// own pipeline (or compiler) output.
type attestVote struct {
	Digest string `json:"digest"`
}

// attestModeHeader carries the proxy.SealMode of a variant request:
// absent means "run your pipeline over these origin bytes and vote with
// the output digest"; "compile" means "the body is an already
// transformed base-architecture artifact — derive the compiled form
// with your own AOT compiler and vote with that digest", which is how
// the shared AOT code cache keeps the N-variant trust property without
// shipping origin bytes a second time.
const attestModeHeader = "X-DVM-Attest-Mode"

// maxVoteBytes bounds a variant's answer: one hex digest in JSON.
const maxVoteBytes = 1 << 10

// maxAttestExtraRounds bounds tie-break escalation: after the initial
// quorum, at most this many extra variants are consulted one at a time
// before the round is declared unresolvable.
const maxAttestExtraRounds = 2

// Seal implements proxy.Fleet: the quorum protocol for one artifact this
// node just produced. Dispatch payload to ring successors under mode,
// tally their digests against the local bytes, escalate ties, seal on
// agreement. Runs on the flight goroutine under the admission slot, so
// the variants' round-trips are part of the key's one-time service cost.
func (n *Node) Seal(ctx context.Context, art *proxy.Artifact, payload []byte, mode proxy.SealMode) (*attest.Attestation, error) {
	if n.authority == nil {
		return nil, nil
	}
	// The artifact is hashed once: the digest is both the owner's vote and
	// what the seal covers.
	arch, class := art.Arch, art.Class
	local := attest.Digest(art.Data)
	want := n.authority.QuorumFor(arch, class)
	if want <= 1 {
		return n.authority.AttestDigest(arch, class, local, 1, []string{n.cfg.Self}), nil
	}
	candidates := n.variantCandidates(arch, class)
	votes, rest := n.collectVotes(ctx, arch, class, payload, candidates, want-1, mode)
	if len(votes) == 0 {
		// Every candidate was down, shedding, or already quarantined.
		// Availability wins: seal at quorum 1 (counted, so a fleet that
		// silently stopped cross-checking is visible in telemetry).
		n.cAttestDegraded.Inc()
		return n.authority.AttestDigest(arch, class, local, 1, []string{n.cfg.Self}), nil
	}
	majority, minority := attest.Tally(n.cfg.Self, local, votes)
	// Tie-break: a split vote re-runs at a higher quorum, one extra
	// variant per round, until a strict majority emerges or the
	// candidate pool (or the round budget) is exhausted.
	for extra := 0; majority == "" && extra < maxAttestExtraRounds && len(rest) > 0; extra++ {
		var more []attest.Vote
		more, rest = n.collectVotes(ctx, arch, class, payload, rest, 1, mode)
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
		return nil, fmt.Errorf("%w: local %.12s vs %d variant votes", attest.ErrNoQuorum, local, len(votes))
	}
	for _, m := range minority {
		n.noteDivergence(m)
	}
	if majority != local {
		// This node is the minority: its own pipeline (or memory, or
		// compiler) produced bytes the fleet outvoted. The flight fails —
		// corrupt output must never be cached or served — and the local
		// divergence is in the ledger for the operator to see.
		return nil, fmt.Errorf("%w: local %.12s, fleet agreed on %.12s", attest.ErrLocalDivergence, local, majority)
	}
	voters := []string{n.cfg.Self}
	for _, v := range votes {
		if v.Digest == majority {
			voters = append(voters, v.Voter)
		}
	}
	return n.authority.AttestDigest(arch, class, local, len(voters), voters), nil
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
// variants fail or shed. Returns the votes and the unused candidates
// (the tie-break pool).
func (n *Node) collectVotes(ctx context.Context, arch, class string, raw []byte, candidates []string, need int, mode proxy.SealMode) ([]attest.Vote, []string) {
	votes := make([]attest.Vote, 0, need)
	i := 0
	for len(votes) < need && i < len(candidates) {
		batch := candidates[i:]
		if want := need - len(votes); len(batch) > want {
			batch = batch[:want]
		}
		i += len(batch)
		type result struct {
			vote attest.Vote
			ok   bool
		}
		ch := make(chan result, len(batch))
		for _, peer := range batch {
			go func(peer string) {
				d, err := n.variantDigest(ctx, peer, arch, class, raw, mode)
				ch <- result{attest.Vote{Voter: peer, Digest: d}, err == nil}
			}(peer)
		}
		for range batch {
			if r := <-ch; r.ok {
				votes = append(votes, r.vote)
			}
		}
	}
	return votes, candidates[i:]
}

// variantDigest asks one peer to re-derive from raw and vote. The hop
// runs under the peer's circuit breaker: a 429 (backpressure or drain)
// is a healthy shed, anything else feeds the breaker like any other
// peer-protocol failure.
func (n *Node) variantDigest(ctx context.Context, peer, arch, class string, raw []byte, mode proxy.SealMode) (string, error) {
	b := n.breaker(peer)
	if err := b.Allow(); err != nil {
		return "", err
	}
	span := telemetry.FromContext(ctx).StartSpan(n.cfg.Self, "attest.variant")
	defer span.End()
	var v attestVote
	answer, err := n.peerPost(ctx, peer, attestV1Prefix+class+".class", "application/java-vm", raw, n.cfg.PeerTimeout, maxVoteBytes,
		"X-DVM-Arch", arch, attestModeHeader, string(mode), "X-DVM-Client", "peer:"+n.cfg.Self)
	if err == nil {
		err = json.Unmarshal(answer, &v)
	}
	if err == nil && len(v.Digest) != 64 {
		err = fmt.Errorf("cluster: variant %s: bad vote %q", peer, v.Digest)
	}
	if errors.Is(err, proxy.ErrOverloaded) {
		// Deliberate shed: the variant is healthy but loaded or leaving.
		b.Success()
		n.cPeerBackpressure.Inc()
		return "", err
	}
	if err != nil {
		b.Failure()
		return "", err
	}
	b.Success()
	n.mship.Refute(peer) // direct evidence of life
	return v.Digest, nil
}

// handleAttest answers a variant request: run the posted origin bytes
// through this node's own pipeline and return the output digest. Only
// the digest crosses the wire back — the owner already has bytes; what
// it wants is an independent opinion. Admission pressure and draining
// shed the request (429): cross-checking must never out-compete serving
// clients.
func (n *Node) handleAttest(w http.ResponseWriter, r *http.Request) {
	tr, ok := n.peerEnter(w, r, http.MethodPost, true)
	if !ok {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, attestV1Prefix)
	name = strings.TrimSuffix(name, ".class")
	arch := r.Header.Get("X-DVM-Arch")
	if name == "" || strings.Contains(name, "..") || arch == "" {
		http.Error(w, "bad attest request", http.StatusBadRequest)
		return
	}
	// The payload is parsed, the result hashed, and only the digest kept.
	buf := proxy.GetBuffer()
	defer proxy.PutBuffer(buf)
	raw, err := proxy.ReadSizedInto(*buf, r.Body, r.ContentLength, maxPeerClassBytes)
	if err != nil || len(raw) == 0 {
		http.Error(w, "bad attest payload", http.StatusBadRequest)
		return
	}
	*buf = raw
	ctx := telemetry.WithTrace(r.Context(), tr)
	var digest string
	var terr error
	if proxy.SealMode(r.Header.Get(attestModeHeader)) == proxy.SealCompile {
		// Compile-mode vote: the body is a base-architecture artifact;
		// answer with the digest of this node's own derivation.
		span := tr.StartSpan(n.cfg.Self, "attest.compile")
		digest, terr = n.local.CompileDigest(arch, name, raw)
		span.End()
	} else {
		span := tr.StartSpan(n.cfg.Self, "attest.transform")
		digest, terr = n.local.TransformDigest(ctx, arch, name, raw)
		span.End()
	}
	tr.WriteSpans(w.Header())
	if terr != nil {
		http.Error(w, terr.Error(), http.StatusInternalServerError)
		return
	}
	n.cAttestVariants.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(attestVote{Digest: digest})
}

// noteDivergence records one minority vote (or one corrupt payload
// served) by peer: the divergence counter, the suspicion ledger, and —
// on crossing the threshold — the quarantine log line. Self-divergence
// lands in the ledger too; the operator sees a sick node flag itself.
func (n *Node) noteDivergence(peer string) {
	n.cAttestDivergence.Inc()
	already := n.authority.Quarantined(peer)
	if n.authority.Divergence(peer) && !already {
		n.cAttestQuarantines.Inc()
	}
}

// attestRejection classifies a peer-fill error as an attestation
// rejection (unattested or failed verification) — the link is healthy,
// the payload is not.
func attestRejection(err error) bool {
	return errors.Is(err, attest.ErrVerify) || errors.Is(err, attest.ErrUnattested)
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
