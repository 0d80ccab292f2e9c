// Package attest turns every cached rewrite into a quorum-attested
// artifact. The pipeline is byte-deterministic at any worker count, so
// N independent nodes transforming the same origin bytes must produce
// the same output digest; a divergence is evidence of a compromised,
// miscompiling, or bit-flipped node (multi-variant execution, dMVX).
//
// The package is deliberately a leaf: it defines the attestation
// record, the selection policy, the signing authority, and the per-peer
// suspicion ledger. The quorum *protocol* — dispatching origin bytes to
// ring successors, comparing votes, breaking ties — lives in
// internal/cluster, which owns membership and transport.
package attest

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"dvm/internal/signing"
)

// Header carries an encoded Attestation on hops that move bytes
// outside the batch envelope (client-facing class responses, disk-cache
// sidecars); batch entries carry it in their Att field.
const Header = "X-DVM-Attest"

// ErrUnattested marks a payload that arrived without an attestation on
// a hop where the receiver requires one.
var ErrUnattested = errors.New("attest: payload carries no attestation")

// ErrVerify marks an attestation whose digest or seal does not match
// the payload — corruption evidence, not a transport failure.
var ErrVerify = errors.New("attest: attestation verification failed")

// ErrNoQuorum marks a vote with no majority digest (e.g. three variants,
// three distinct outputs): nothing can be trusted, the flight fails.
var ErrNoQuorum = errors.New("attest: no digest reached a majority")

// ErrLocalDivergence marks the case where the local output lost the
// vote: this node is the minority. The flight must fail — a node must
// never serve or cache bytes its own fleet outvoted.
var ErrLocalDivergence = errors.New("attest: local output lost the quorum vote")

// Digest is the canonical artifact digest: hex SHA-256 of the
// transformed class bytes.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Attestation is the trust metadata stored alongside a cached artifact
// and carried on every hop that moves artifact bytes (peer fill,
// replication push, handoff). Receivers recompute the payload digest
// and check the seal before accepting the bytes.
type Attestation struct {
	Arch   string `json:"arch"`
	Class  string `json:"class"`
	// Digest is the hex SHA-256 of the transformed bytes.
	Digest string `json:"digest"`
	// Quorum is how many identical variant digests backed this artifact
	// (1 = local-only, today's trust model).
	Quorum int `json:"quorum"`
	// Voters are the nodes whose variants agreed, owner included.
	// Empty for single-node deployments.
	Voters []string `json:"voters,omitempty"`
	// Seal is the service MAC over the record; unforgeable without the
	// shared service key.
	Seal []byte `json:"seal"`
}

// record is the canonical byte form the seal covers. Voters are part of
// it: an attacker must not be able to rewrite the provenance.
func (a *Attestation) record() []byte {
	return []byte(fmt.Sprintf("dvm-attest\x00%s\x00%s\x00%s\x00%d\x00%s",
		a.Arch, a.Class, a.Digest, a.Quorum, strings.Join(a.Voters, ",")))
}

// Encode packs the attestation for an HTTP header (base64url of JSON).
func (a *Attestation) Encode() string {
	b, _ := json.Marshal(a)
	return base64.RawURLEncoding.EncodeToString(b)
}

// Decode unpacks a header value produced by Encode.
func Decode(s string) (*Attestation, error) {
	if s == "" {
		return nil, ErrUnattested
	}
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("attest: bad header encoding: %w", err)
	}
	var a Attestation
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("attest: bad header payload: %w", err)
	}
	return &a, nil
}

// Mode selects which keys get quorum attestation.
type Mode string

const (
	// ModeAlways attests every transform at the configured quorum.
	ModeAlways Mode = "always"
	// ModeSampled attests 1-in-SampleRate keys (deterministic by key
	// hash, so the same key is always either sampled or not).
	ModeSampled Mode = "sampled"
	// ModeHot attests only keys the caller's hot-set reports hot;
	// everything else runs at quorum 1.
	ModeHot Mode = "hot"
)

// Policy picks the quorum for each key.
type Policy struct {
	// Quorum is the total variant count, owner included. 1 disables
	// cross-checking and reproduces the pre-attestation trust model.
	Quorum int
	// Mode is the key selector; unselected keys run at quorum 1.
	Mode Mode
	// SampleRate is the 1-in-N rate for ModeSampled (default 16).
	SampleRate int
	// Hot reports whether a key is hot, for ModeHot. Nil means nothing
	// is hot.
	Hot func(arch, class string) bool
}

// QuorumFor returns the quorum this policy wants for one key.
func (p Policy) QuorumFor(arch, class string) int {
	if p.Quorum <= 1 {
		return 1
	}
	switch p.Mode {
	case ModeSampled:
		rate := p.SampleRate
		if rate <= 0 {
			rate = 16
		}
		h := fnv.New32a()
		h.Write([]byte(arch))
		h.Write([]byte{0})
		h.Write([]byte(class))
		if h.Sum32()%uint32(rate) != 0 {
			return 1
		}
	case ModeHot:
		if p.Hot == nil || !p.Hot(arch, class) {
			return 1
		}
	}
	return p.Quorum
}

// ParseMode validates a -attest-policy flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeAlways, ModeSampled, ModeHot:
		return Mode(s), nil
	case "":
		return ModeAlways, nil
	}
	return "", fmt.Errorf("attest: unknown policy mode %q (want always|sampled|hot)", s)
}

// DefaultQuarantineAfter is the divergence count that quarantines a
// peer when Config leaves it zero. Three: one divergence is already
// damning given a deterministic pipeline, but transient memory
// corruption exists; three independent minority votes do not happen by
// accident.
const DefaultQuarantineAfter = 3

// Suspicion is one peer's standing in the ledger, as surfaced in
// /healthz.
type Suspicion struct {
	Peer        string `json:"peer"`
	Divergences int    `json:"divergences"`
	Quarantined bool   `json:"quarantined"`
}

// Authority is one node's attestation engine: it signs artifacts that
// won their vote, verifies artifacts arriving on any hop, and keeps the
// per-peer suspicion ledger.
type Authority struct {
	signer          *signing.Signer
	policy          Policy
	quarantineAfter int

	mu     sync.Mutex
	ledger map[string]int // peer → divergence count
}

// Config assembles an Authority.
type Config struct {
	// Key is the shared service key artifacts are sealed with.
	Key []byte
	// Policy selects keys and quorum.
	Policy Policy
	// QuarantineAfter is the divergence count that quarantines a peer
	// (default DefaultQuarantineAfter).
	QuarantineAfter int
}

// New builds an Authority.
func New(cfg Config) *Authority {
	k := cfg.QuarantineAfter
	if k <= 0 {
		k = DefaultQuarantineAfter
	}
	return &Authority{
		signer:          signing.NewSigner(cfg.Key),
		policy:          cfg.Policy,
		quarantineAfter: k,
		ledger:          make(map[string]int),
	}
}

// QuorumFor returns the quorum the policy wants for one key, never
// consulting the ledger — quarantined peers shrink the candidate pool,
// not the goal.
func (a *Authority) QuorumFor(arch, class string) int {
	return a.policy.QuorumFor(arch, class)
}

// Attest seals an artifact that won its vote (or ran at quorum 1) and
// returns the finished record. Voters should include the local node.
func (a *Authority) Attest(arch, class string, data []byte, quorum int, voters []string) *Attestation {
	return a.AttestDigest(arch, class, Digest(data), quorum, voters)
}

// AttestDigest is Attest for a caller that already holds the artifact's
// Digest — the owner of a quorum round hashed its bytes to tally the
// votes — so each artifact is hashed once.
func (a *Authority) AttestDigest(arch, class, digest string, quorum int, voters []string) *Attestation {
	att := &Attestation{
		Arch:   arch,
		Class:  class,
		Digest: digest,
		Quorum: quorum,
		Voters: append([]string(nil), voters...),
	}
	att.Seal = a.signer.SealBytes(att.record())
	return att
}

// proposalRecord is the canonical byte form a proposal's MAC covers. Its
// prefix differs from record's, so neither MAC can stand in for the other.
func proposalRecord(arch, class, mode string, commit []byte, voters []string) []byte {
	return []byte(fmt.Sprintf("dvm-propose\x00%s\x00%s\x00%s\x00%x\x00%s",
		arch, class, mode, commit, strings.Join(voters, ",")))
}

// SealProposal is the service MAC over a quorum owner's offer to let a
// voter keep its own output: the key, the seal mode, commit (SHA-256 of
// the owner's digest) and the voters the owner will seal under. A voter
// seals a copy of its own only on an offer that verifies, so only a key
// holder can place sealed bytes in a voter's cache.
func (a *Authority) SealProposal(arch, class, mode string, commit []byte, voters []string) []byte {
	return a.signer.SealBytes(proposalRecord(arch, class, mode, commit, voters))
}

// VerifyProposal reports whether mac is SealProposal's MAC over the offer.
func (a *Authority) VerifyProposal(arch, class, mode string, commit []byte, voters []string, mac []byte) bool {
	return a.signer.VerifySeal(proposalRecord(arch, class, mode, commit, voters), mac)
}

// Verify checks an attestation against the payload it claims to cover:
// the key must match, the recomputed digest must match, and the seal
// must verify under the service key. A nil attestation is ErrUnattested.
func (a *Authority) Verify(att *Attestation, arch, class string, data []byte) error {
	if att == nil {
		return ErrUnattested
	}
	if att.Arch != arch || att.Class != class {
		return fmt.Errorf("%w: attestation is for (%s, %s), payload is (%s, %s)",
			ErrVerify, att.Arch, att.Class, arch, class)
	}
	if att.Digest != Digest(data) {
		return fmt.Errorf("%w: payload digest mismatch", ErrVerify)
	}
	if !a.signer.VerifySeal(att.record(), att.Seal) {
		return fmt.Errorf("%w: bad seal", ErrVerify)
	}
	return nil
}

// Divergence records one minority vote by peer and reports whether the
// peer is now quarantined. The count is sticky: quarantine is an
// operator-visible state, not something refuted by later agreement —
// a node that lies once about artifact bytes cannot be trusted by
// counting the times it told the truth.
func (a *Authority) Divergence(peer string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ledger[peer]++
	return a.ledger[peer] >= a.quarantineAfter
}

// Quarantined reports whether peer has crossed the divergence
// threshold. Quarantined peers are skipped by peer fill and excluded
// from variant selection.
func (a *Authority) Quarantined(peer string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ledger[peer] >= a.quarantineAfter
}

// Divergences returns peer's current ledger count.
func (a *Authority) Divergences(peer string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ledger[peer]
}

// Suspicions snapshots the ledger, sorted by peer, for /healthz.
func (a *Authority) Suspicions() []Suspicion {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Suspicion, 0, len(a.ledger))
	for p, n := range a.ledger {
		out = append(out, Suspicion{
			Peer:        p,
			Divergences: n,
			Quarantined: n >= a.quarantineAfter,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Vote is one variant's answer in a quorum round.
type Vote struct {
	Voter  string
	Digest string
}

// Tally decides a quorum round: given the local digest and the variant
// votes, it returns the majority digest and the minority voters. The
// local node counts as one vote. A strict majority is required; with
// none, Majority is "" (caller re-runs at a higher quorum or fails).
func Tally(self, localDigest string, votes []Vote) (majority string, minority []string) {
	counts := map[string]int{localDigest: 1}
	for _, v := range votes {
		counts[v.Digest]++
	}
	total := 1 + len(votes)
	for d, n := range counts {
		if 2*n > total {
			majority = d
			break
		}
	}
	if majority == "" {
		return "", nil
	}
	if localDigest != majority {
		minority = append(minority, self)
	}
	for _, v := range votes {
		if v.Digest != majority {
			minority = append(minority, v.Voter)
		}
	}
	sort.Strings(minority)
	return majority, minority
}
