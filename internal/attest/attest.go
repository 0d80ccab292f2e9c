// Package attest turns every cached rewrite into a quorum-attested
// artifact. The pipeline is byte-deterministic at any worker count, so
// N independent nodes transforming the same origin bytes must produce
// the same output digest; a divergence is evidence of a compromised,
// miscompiling, or bit-flipped node (multi-variant execution, dMVX).
//
// The package is deliberately a leaf: it defines the attestation
// record, the selection policy and the signing authority. The quorum
// *protocol* — dispatching origin bytes to ring successors, comparing
// votes, breaking ties — and each peer's divergence strikes live in
// internal/cluster, which owns membership and transport.
package attest

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"dvm/internal/signing"
)

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

// Sum is an artifact digest: the SHA-256 of the transformed class bytes.
// It stays 32 bytes in memory and on the wire; hex appears only in the
// sealed record text, the proposal commitment, the header codec and logs.
type Sum [sha256.Size]byte

// Digest is the canonical artifact digest.
func Digest(data []byte) Sum { return sha256.Sum256(data) }

// AppendHex appends s as 64 lowercase hex digits.
func (s Sum) AppendHex(dst []byte) []byte { return hex.AppendEncode(dst, s[:]) }

// String is s in lowercase hex.
func (s Sum) String() string { return string(s.AppendHex(nil)) }

// MarshalText and UnmarshalText give the header codec the digest's hex
// form; a value that is not exactly 64 hex digits does not decode.
func (s Sum) MarshalText() ([]byte, error) { return s.AppendHex(nil), nil }

func (s *Sum) UnmarshalText(b []byte) error {
	if len(b) != hex.EncodedLen(len(s)) {
		return fmt.Errorf("attest: digest is %d hex digits, want %d", len(b), hex.EncodedLen(len(s)))
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// Attestation is the trust metadata stored alongside a cached artifact
// and carried on every hop that moves artifact bytes (peer fill,
// replication push, handoff). Receivers recompute the payload digest
// and check the seal before accepting the bytes.
type Attestation struct {
	Arch  string `json:"arch"`
	Class string `json:"class"`
	// Digest is the SHA-256 of the transformed bytes.
	Digest Sum `json:"digest"`
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

// appendRecord appends the canonical byte form the seal covers,
//
//	"dvm-attest" 0 arch 0 class 0 hex(digest) 0 decimal(quorum) 0 voters joined by ","
//
// Voters are part of it: an attacker must not be able to rewrite the
// provenance.
func (a *Attestation) appendRecord(dst []byte) []byte {
	dst = append(dst, "dvm-attest\x00"...)
	dst = append(append(dst, a.Arch...), 0)
	dst = append(append(dst, a.Class...), 0)
	dst = append(a.Digest.AppendHex(dst), 0)
	dst = append(strconv.AppendInt(dst, int64(a.Quorum), 10), 0)
	return appendJoined(dst, a.Voters)
}

// appendJoined appends ss separated by commas.
func appendJoined(dst []byte, ss []string) []byte {
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s...)
	}
	return dst
}

// records holds the buffers seal records are appended into: sealing or
// checking one allocates no text.
var records = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// maxPooledRecord bounds a record buffer kept for reuse: a record with a
// huge voter list is sealed once, not kept.
const maxPooledRecord = 4 << 10

func putRecord(b *[]byte) {
	if cap(*b) <= maxPooledRecord {
		records.Put(b)
	}
}

// Encode packs the attestation as an HTTP header value (base64url of
// JSON). Disk and peer hops carry the record in the artifact codec
// (proxy) instead; no hop sends this header today.
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

// Mode selects which keys get quorum attestation. It has one value:
// every key runs at the configured quorum. A selector that seals some
// keys at quorum 1 comes back only with the measurement that justifies it.
type Mode string

// ModeAlways attests every transform at the configured quorum.
const ModeAlways Mode = "always"

// Policy picks the quorum for each key.
type Policy struct {
	// Quorum is the total variant count, owner included. 1 disables
	// cross-checking and reproduces the pre-attestation trust model.
	Quorum int
	// Mode is ModeAlways or empty; both mean the same.
	Mode Mode
}

// QuorumFor returns the quorum this policy wants for one key.
func (p Policy) QuorumFor(arch, class string) int {
	return max(p.Quorum, 1)
}

// Authority is one node's attestation engine: it signs artifacts that
// won their vote and verifies artifacts arriving on any hop.
type Authority struct {
	signer *signing.Signer
	policy Policy
}

// Config assembles an Authority.
type Config struct {
	// Key is the shared service key artifacts are sealed with.
	Key []byte
	// Policy selects keys and quorum.
	Policy Policy
}

// New builds an Authority.
func New(cfg Config) *Authority {
	return &Authority{
		signer: signing.NewSigner(cfg.Key),
		policy: cfg.Policy,
	}
}

// QuorumFor returns the quorum the policy wants for one key, whatever
// the peers' standing — quarantined peers shrink the candidate pool, not
// the goal.
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
func (a *Authority) AttestDigest(arch, class string, digest Sum, quorum int, voters []string) *Attestation {
	att := &Attestation{
		Arch:   arch,
		Class:  class,
		Digest: digest,
		Quorum: quorum,
		Voters: append([]string(nil), voters...),
	}
	rec := records.Get().(*[]byte)
	*rec = att.appendRecord((*rec)[:0])
	att.Seal = a.signer.SealBytes(*rec)
	putRecord(rec)
	return att
}

// appendProposalRecord appends the canonical byte form a proposal's MAC
// covers,
//
//	"dvm-propose" 0 arch 0 class 0 mode 0 hex(commit) 0 voters joined by ","
//
// Its prefix differs from the attestation record's, so neither MAC can
// stand in for the other.
func appendProposalRecord(dst []byte, arch, class, mode string, commit []byte, voters []string) []byte {
	dst = append(dst, "dvm-propose\x00"...)
	dst = append(append(dst, arch...), 0)
	dst = append(append(dst, class...), 0)
	dst = append(append(dst, mode...), 0)
	dst = append(hex.AppendEncode(dst, commit), 0)
	return appendJoined(dst, voters)
}

// SealProposal is the service MAC over a quorum owner's offer to let a
// voter keep its own output: the key, the seal mode, commit (SHA-256 of
// the owner's digest) and the voters the owner will seal under. A voter
// seals a copy of its own only on an offer that verifies, so only a key
// holder can place sealed bytes in a voter's cache.
func (a *Authority) SealProposal(arch, class, mode string, commit []byte, voters []string) []byte {
	rec := records.Get().(*[]byte)
	*rec = appendProposalRecord((*rec)[:0], arch, class, mode, commit, voters)
	mac := a.signer.SealBytes(*rec)
	putRecord(rec)
	return mac
}

// VerifyProposal reports whether mac is SealProposal's MAC over the offer.
func (a *Authority) VerifyProposal(arch, class, mode string, commit []byte, voters []string, mac []byte) bool {
	rec := records.Get().(*[]byte)
	*rec = appendProposalRecord((*rec)[:0], arch, class, mode, commit, voters)
	ok := a.signer.VerifySeal(*rec, mac)
	putRecord(rec)
	return ok
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
	rec := records.Get().(*[]byte)
	*rec = att.appendRecord((*rec)[:0])
	ok := a.signer.VerifySeal(*rec, att.Seal)
	putRecord(rec)
	if !ok {
		return fmt.Errorf("%w: bad seal", ErrVerify)
	}
	return nil
}

// Vote is one variant's answer in a quorum round.
type Vote struct {
	Voter  string
	Digest Sum
}

// Tally decides a quorum round: given the local digest and the variant
// votes, it returns the majority digest and the minority voters. The
// local node counts as one vote. A strict majority is required; with
// none, ok is false (caller re-runs at a higher quorum or fails). A round
// has a handful of votes, so each candidate is counted by a scan.
func Tally(self string, localDigest Sum, votes []Vote) (majority Sum, ok bool, minority []string) {
	total := 1 + len(votes)
	majority, ok = localDigest, 2*votesFor(localDigest, localDigest, votes) > total
	for i := 0; !ok && i < len(votes); i++ {
		majority, ok = votes[i].Digest, 2*votesFor(votes[i].Digest, localDigest, votes) > total
	}
	if !ok {
		return Sum{}, false, nil
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
	return majority, true, minority
}

// votesFor counts the round's votes for d, the local one included.
func votesFor(d, localDigest Sum, votes []Vote) int {
	n := 0
	if d == localDigest {
		n++
	}
	for _, v := range votes {
		if v.Digest == d {
			n++
		}
	}
	return n
}
