package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"dvm/internal/attest"
)

// Artifact is one transformed class together with everything that must
// travel with it: the key it answers, the quorum seal over its bytes,
// and whether it is a verification-failure replacement. It is the one
// shape a class takes inside the proxy and the cluster — cache entry,
// flight result, peer fill, replica push, handoff, prefetch — so no hop
// can forget a field. An Artifact is never modified once it has been
// put in the store or handed to another goroutine; share the pointer.
type Artifact struct {
	Arch  string
	Class string
	Data  []byte
	// Att is the sealed attestation over Data (nil when the fleet does
	// not attest). Whoever builds an Artifact from bytes that crossed a
	// trust boundary verifies Att against them first.
	Att *attest.Attestation
	// Rejected marks a replacement class that raises VerifyError on the
	// client. Replacements are architecture-independent and must never
	// be fed to the compiler.
	Rejected bool
	// Source says how this node came to hold the artifact: one of the
	// Source* constants.
	Source string
}

// Artifact sources. The four push sources double as the reason field of
// the peer batch protocol.
const (
	SourceOrigin = "origin" // fetched and transformed here
	SourceDerive = "derive" // compiled here from the cached base artifact
	SourceDisk   = "disk"   // reloaded from the disk tier

	ReasonFill     = "fill"     // served by the key's owner on a miss
	ReasonReplica  = "replica"  // a ring owner's copy, pushed or kept as it voted
	ReasonHandoff  = "handoff"  // moved on a membership change
	ReasonPrefetch = "prefetch" // pushed speculatively; placed cold, never evicts
)

func (a *Artifact) key() string { return a.Arch + "\x00" + a.Class }

// The artifact codec: an Artifact's one byte form, at rest (a disk tier
// file, store.go) and in flight (an entry of a peer batch frame,
// cluster/frame.go). Integers are uvarints in their shortest form, so a
// value has one encoding; str and bytes are a uvarint length followed by
// that many raw bytes:
//
//	frame = "DVMB" version(1 byte = 2) body
//	entry = flags(1 byte: 1 rejected, 2 stale, 4 attested),
//	        str reason, str arch, str class,
//	        [attested: digest(32 raw bytes), quorum,
//	         n, n × str voter, bytes seal],
//	        bytes data
//
// A disk file is a frame whose body is one entry with an empty reason
// and the stale bit clear. An attestation's arch and class are the
// entry's: the seal covers them, so a record that named another key
// fails verification at the reader instead of being representable. The
// decoder never trusts a declared count or length: each is checked
// against the bytes that remain before anything is allocated for it, so
// a frame costs its reader a small multiple of its own size whatever it
// claims.
const (
	FrameMagic   = "DVMB"
	FrameVersion = 2

	FlagRejected = 1 << 0
	FlagStale    = 1 << 1
	FlagAttested = 1 << 2
	flagsKnown   = FlagRejected | FlagStale | FlagAttested

	// LeastEntry is the fewest bytes an entry occupies (flags, three
	// strings, data): a count above remaining/LeastEntry is refused.
	LeastEntry = 5
)

// ErrFrame marks every decoding failure.
var ErrFrame = errors.New("proxy: bad frame")

// The field encoders append to dst and return it: the frame header, a
// uvarint (negative as 0), a string or byte slice (length first), a
// count and that many strings, and a hex digest as 32 raw bytes (one
// that is not 64 hex digits travels as its decodable prefix plus zeros,
// and fails at the reader).
func AppendFrameHeader(dst []byte) []byte    { return append(append(dst, FrameMagic...), FrameVersion) }
func AppendUvarint(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(max(v, 0))) }
func AppendStr(dst []byte, s string) []byte  { return append(AppendUvarint(dst, len(s)), s...) }
func AppendBytes(dst, b []byte) []byte       { return append(AppendUvarint(dst, len(b)), b...) }

func AppendStrs(dst []byte, ss []string) []byte {
	dst = AppendUvarint(dst, len(ss))
	for _, s := range ss {
		dst = AppendStr(dst, s)
	}
	return dst
}

func AppendDigest(dst []byte, s string) []byte {
	var dg [sha256.Size]byte
	_, _ = hex.Decode(dg[:], []byte(s[:min(len(s), 2*len(dg))]))
	return append(dst, dg[:]...)
}

// AppendEntry appends a's entry up to and including the length of its
// data. a.Data follows it — the peer frame splices it in as a run of its
// own, the disk tier writes it after — so a payload is never copied to
// be encoded. reason and stale are the hop's: empty and false at rest.
func (a *Artifact) AppendEntry(dst []byte, reason string, stale bool) []byte {
	var flags byte
	if a.Rejected {
		flags |= FlagRejected
	}
	if stale {
		flags |= FlagStale
	}
	if a.Att != nil {
		flags |= FlagAttested
	}
	dst = AppendStr(AppendStr(AppendStr(append(dst, flags), reason), a.Arch), a.Class)
	if att := a.Att; att != nil {
		dst = AppendStrs(AppendUvarint(AppendDigest(dst, att.Digest), att.Quorum), att.Voters)
		dst = AppendBytes(dst, att.Seal)
	}
	return AppendUvarint(dst, len(a.Data))
}

// Cursor reads one received frame in place. The first malformed field
// latches ErrFrame and every later read yields zero values, so a decoder
// reads straight through and checks once, with Finish. Each reader names
// its field for the error.
type Cursor struct {
	b   []byte
	err error
}

// OpenFrame returns a cursor over b's body, past the magic and version.
func OpenFrame(b []byte) Cursor {
	d := Cursor{b: b}
	if string(d.take(len(FrameMagic), "magic")) != FrameMagic {
		d.fail("wrong magic")
	}
	if v := d.byte1("version"); d.err == nil && v != FrameVersion {
		d.fail(fmt.Sprintf("version %d, want %d", v, FrameVersion))
	}
	return d
}

func (d *Cursor) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrFrame, what)
	}
	d.b = nil
}

// take consumes n raw bytes, aliasing the frame (capacity clipped, so an
// append cannot reach the bytes after them).
func (d *Cursor) take(n int, what string) []byte {
	if n > len(d.b) {
		d.fail(what + " runs past the frame")
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *Cursor) byte1(what string) byte {
	if b := d.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

// The field readers: bytes remaining, a byte slice or string (aliasing
// the frame), 32 raw bytes as a hex digest, a 0-or-1 byte, a uvarint of
// at most 2^31-1, a count of elements of at least least bytes each, and
// a count and that many strings (none: nil).
func (d *Cursor) Len() int                  { return len(d.b) }
func (d *Cursor) Bytes(what string) []byte  { return d.take(d.Uvarint(what), what) }
func (d *Cursor) Str(what string) string    { return string(d.Bytes(what)) }
func (d *Cursor) Digest(what string) string { return hex.EncodeToString(d.take(sha256.Size, what)) }

func (d *Cursor) Flag(what string) bool {
	b := d.byte1(what)
	if b > 1 {
		d.fail("bad " + what)
	}
	return b == 1
}

func (d *Cursor) Uvarint(what string) int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > math.MaxInt32 || (n > 1 && d.b[n-1] == 0) {
		d.fail("bad " + what)
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *Cursor) Count(least int, what string) int {
	n := d.Uvarint(what)
	if n > len(d.b)/least {
		d.fail(what + " exceeds the frame")
		return 0
	}
	return n
}

func (d *Cursor) Strs(what string) []string {
	n := d.Count(1, what) // a string is at least its length byte
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str(what)
	}
	return out
}

// Entry reads one entry: the artifact (Source unset) and the hop's
// reason and stale bit. Its Data aliases the frame unless own is set,
// which copies it out: an artifact that outlives its frame must not pin
// one much larger than itself. The seal is always a copy, so an
// attestation — which audit records and responses pass on — never points
// into a frame that may go back to the pool.
func (d *Cursor) Entry(own bool) (a Artifact, reason string, stale bool) {
	flags := d.byte1("entry flags")
	if flags&^flagsKnown != 0 {
		d.fail("unknown entry flags")
	}
	a.Rejected, stale = flags&FlagRejected != 0, flags&FlagStale != 0
	reason, a.Arch, a.Class = d.Str("entry reason"), d.Str("entry arch"), d.Str("entry class")
	if flags&FlagAttested != 0 {
		a.Att = &attest.Attestation{Arch: a.Arch, Class: a.Class, Digest: d.Digest("digest"),
			Quorum: d.Uvarint("quorum"), Voters: d.Strs("voters"), Seal: bytes.Clone(d.Bytes("seal"))}
	}
	if a.Data = d.Bytes("entry data"); own {
		a.Data = bytes.Clone(a.Data)
	}
	return a, reason, stale
}

// Finish reports the latched error, or trailing bytes.
func (d *Cursor) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return d.err
}

// SealMode says what a fleet variant must do with the payload to
// re-derive an artifact and vote on it.
type SealMode string

const (
	// SealTransform: the payload is origin bytes; run the pipeline.
	SealTransform SealMode = ""
	// SealCompile: the payload is the base-architecture artifact; run
	// the AOT compiler.
	SealCompile SealMode = "compile"
)

// Fleet is what a proxy needs from the cluster it is a member of
// (implemented by *cluster.Node; nil = standalone). A miss asks the
// fleet first, and an artifact produced here is sealed by the fleet —
// which also places its copies on the key's other owners — before anyone
// sees it.
type Fleet interface {
	// Fill routes a miss through the key's ring owners. The full Lookup
	// is passed so the owner's prefetch predictor learns per-client
	// request sequences.
	Fill(ctx context.Context, l Lookup) PeerResult
	// Seal cross-checks an artifact this node produced against ring
	// successors — each re-derives it from payload under mode — and
	// returns the sealed attestation on agreement. An error fails the
	// flight: a node never serves bytes its own fleet outvoted. A nil
	// attestation with a nil error means the fleet does not attest.
	// Runs under the admission slot, so the quorum round trip is part
	// of the key's one-time service cost. Seal also places copies on the
	// key's other owners that lack one, asynchronously; that work must not
	// read art.Att, which the proxy sets after Seal returns, nor art.Data,
	// which may live in a recycled buffer: it copies what it sends.
	Seal(ctx context.Context, art *Artifact, payload []byte, mode SealMode) (*attest.Attestation, error)
}

// PeerResult is the outcome of Fleet.Fill. Art set (its Source is
// ReasonFill): the owning peer served the class, already verified —
// skip the origin and the pipeline. Err set: the owner chain was down
// or refused; degrade to a local origin fetch so a peer outage never
// fails a request. Neither: this node owns the key.
type PeerResult struct {
	Art *Artifact
	Err error
	// CacheLocal keeps the peer's artifact in this node's own store: the
	// cluster copies hot keys toward their readers so the ring owner
	// does not become a hotspot.
	CacheLocal bool
	// Stale mirrors the owner's response flag so audit records and
	// client semantics survive the peer hop.
	Stale bool
	// Peer identifies the node that served (or failed to serve) the key.
	Peer string
	// Frame, when set, is the recycled buffer (GetBuffer) the answer was
	// read into and Art.Data aliases; the proxy owns it from here. Nil
	// when Art's bytes are a buffer of their own.
	Frame *[]byte
}
