package cluster

// The batch protocol's wire form: one length-prefixed binary frame per
// request and per response, decoded in place from a buffer the hop read
// in one piece (proxy.ReadSized). Layout, all integers uvarint, str and
// bytes a uvarint length followed by that many raw bytes:
//
//	frame    = "DVMB" version(1 byte = 2) body
//	request  = str reason, str member, str client, str arch,
//	           n, n × str class, maxBytes, noPrefetch(1 byte), entries,
//	           [reason "vote": str mode, bytes commit, n, n × str voter,
//	            bytes seal, bytes payload]
//	response = entries, n, n × (str arch, str class, status, str message),
//	           [if bytes remain, ballot: digest(32 raw bytes), kept(1 byte)]
//	entries  = n, n × entry
//	entry    = flags(1 byte: 1 rejected, 2 stale, 4 attested),
//	           str reason, str arch, str class,
//	           [attested: digest(32 raw bytes), quorum,
//	            n, n × str voter, bytes seal],
//	           bytes data
//
// An attestation's arch and class are the entry's: the seal covers them,
// so a sender whose record named another key fails verification at the
// receiver instead of being representable. The decoder never trusts a
// declared count or length: each is checked against the bytes that
// remain before anything is allocated for it, so a frame costs its
// receiver a small multiple of its own size whatever it claims.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"

	"dvm/internal/attest"
	"dvm/internal/proxy"
)

const (
	frameMagic   = "DVMB"
	frameVersion = 2
)

// Entry flag bits.
const (
	flagRejected = 1 << iota
	flagStale
	flagAttested
	flagsKnown = flagRejected | flagStale | flagAttested
)

// Least wire bytes one element of each repeated field can occupy; a
// declared count above remaining/least is refused unallocated.
const (
	leastStr   = 1 // length prefix
	leastEntry = 5 // flags + three strings + data
	leastError = 4 // two strings + status + message
)

var errFrame = errors.New("cluster: bad batch frame")

// frameEnc builds a frame as runs — metadata, payload, metadata, … — so a
// payload (an Artifact's Data) is never copied on its way to the wire. A
// closed run stays valid as meta grows: appends never rewrite its bytes.
type frameEnc struct {
	meta []byte
	runs [][]byte // closed runs; the open one is meta[from:]
	from int
}

func newFrameEnc() *frameEnc {
	f := &frameEnc{meta: make([]byte, 0, 256)}
	f.meta = append(f.meta, frameMagic...)
	f.meta = append(f.meta, frameVersion)
	return f
}

func (f *frameEnc) uvarint(v int) {
	f.meta = binary.AppendUvarint(f.meta, uint64(max(v, 0)))
}

func (f *frameEnc) str(s string) {
	f.uvarint(len(s))
	f.meta = append(f.meta, s...)
}

func (f *frameEnc) flag(b bool) {
	if b {
		f.meta = append(f.meta, 1)
	} else {
		f.meta = append(f.meta, 0)
	}
}

func (f *frameEnc) entries(es []BatchEntry) {
	f.uvarint(len(es))
	for i := range es {
		e := &es[i]
		var flags byte
		if e.Rejected {
			flags |= flagRejected
		}
		if e.Stale {
			flags |= flagStale
		}
		if e.Att != nil {
			flags |= flagAttested
		}
		f.meta = append(f.meta, flags)
		f.str(e.Reason)
		f.str(e.Arch)
		f.str(e.Class)
		if att := e.Att; att != nil {
			f.digest(att.Digest)
			f.uvarint(att.Quorum)
			f.strs(att.Voters)
			f.uvarint(len(att.Seal))
			f.meta = append(f.meta, att.Seal...)
		}
		f.payload(e.Data)
	}
}

func (f *frameEnc) blob(b []byte) {
	f.uvarint(len(b))
	f.meta = append(f.meta, b...)
}

func (f *frameEnc) strs(ss []string) {
	f.uvarint(len(ss))
	for _, s := range ss {
		f.str(s)
	}
}

// digest writes a hex digest as 32 raw bytes; one that is not 64 hex
// digits travels as its decodable prefix plus zeros, and fails there.
func (f *frameEnc) digest(s string) {
	var dg [sha256.Size]byte
	_, _ = hex.Decode(dg[:], []byte(s[:min(len(s), 2*len(dg))]))
	f.meta = append(f.meta, dg[:]...)
}

// payload closes the open metadata run and splices b in after it.
func (f *frameEnc) payload(b []byte) {
	f.uvarint(len(b))
	f.runs = append(f.runs, f.meta[f.from:], b)
	f.from = len(f.meta)
}

// size is the frame's length on the wire (the Content-Length).
func (f *frameEnc) size() int {
	n := len(f.meta) - f.from
	for _, r := range f.runs {
		n += len(r)
	}
	return n
}

// writeTo writes the frame run by run.
func (f *frameEnc) writeTo(w io.Writer) error {
	for _, r := range f.runs {
		if _, err := w.Write(r); err != nil {
			return err
		}
	}
	_, err := w.Write(f.meta[f.from:])
	return err
}

// appendTo appends the frame, runs joined, to dst.
func (f *frameEnc) appendTo(dst []byte) []byte {
	for _, r := range f.runs {
		dst = append(dst, r...)
	}
	return append(dst, f.meta[f.from:]...)
}

func (r *BatchRequest) encode() *frameEnc {
	f := newFrameEnc()
	f.str(r.Reason)
	f.str(r.Member)
	f.str(r.Client)
	f.str(r.Arch)
	f.strs(r.Classes)
	f.uvarint(r.MaxBytes)
	f.flag(r.NoPrefetch)
	f.entries(r.Entries)
	if v := &r.Vote; r.Reason == reasonVote {
		f.str(string(v.Mode))
		f.blob(v.Commit)
		f.strs(v.Voters)
		f.blob(v.Seal)
		f.payload(v.Payload)
	}
	return f
}

func (r *BatchResponse) encode() *frameEnc {
	f := newFrameEnc()
	f.entries(r.Entries)
	f.uvarint(len(r.Errors))
	for _, e := range r.Errors {
		f.str(e.Arch)
		f.str(e.Class)
		f.uvarint(e.Status)
		f.str(e.Error)
	}
	if b := r.Vote; b != nil {
		f.digest(b.Digest)
		f.flag(b.Kept)
	}
	return f
}

// MarshalBinary encodes the request as one frame.
func (r *BatchRequest) MarshalBinary() ([]byte, error) { return r.encode().appendTo(nil), nil }

// frameDec is a cursor over one received frame. The first malformed
// field latches err and every later read yields zero values, so a
// decoder reads straight through and checks once at the end.
type frameDec struct {
	b   []byte
	err error
}

func (d *frameDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errFrame, what)
	}
	d.b = nil
}

// take consumes n raw bytes, aliasing the frame.
func (d *frameDec) take(n int, what string) []byte {
	if n > len(d.b) {
		d.fail(what + " runs past the frame")
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *frameDec) byte1(what string) byte {
	if b := d.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

func (d *frameDec) flag(what string) bool {
	b := d.byte1(what)
	if b > 1 {
		d.fail("bad " + what)
	}
	return b == 1
}

func (d *frameDec) uvarint(what string) int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > math.MaxInt32 {
		d.fail("bad " + what)
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// count reads how many elements follow, each at least `least` wire bytes.
func (d *frameDec) count(least int, what string) int {
	n := d.uvarint(what)
	if n > len(d.b)/least {
		d.fail(what + " exceeds the frame")
		return 0
	}
	return n
}

func (d *frameDec) bytes(what string) []byte { return d.take(d.uvarint(what), what) }

func (d *frameDec) str(what string) string { return string(d.bytes(what)) }

func (d *frameDec) strs(what string) []string {
	n := d.count(leastStr, what)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str(what)
	}
	return out
}

func (d *frameDec) header() {
	if string(d.take(len(frameMagic), "magic")) != frameMagic {
		d.fail("wrong magic")
	}
	if v := d.byte1("version"); d.err == nil && v != frameVersion {
		d.fail(fmt.Sprintf("version %d, want %d", v, frameVersion))
	}
}

// finish reports the latched error, or trailing bytes.
func (d *frameDec) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return d.err
}

// entries decodes the entry list. A lone entry's Data and Seal alias the
// frame (capacity clipped, so an append cannot reach the bytes after
// them): the frame is barely larger than the class, and the read buffer
// becomes the artifact. Several entries are copied out one by one, so an
// artifact that outlives the batch never pins a frame larger than itself.
func (d *frameDec) entries() []BatchEntry {
	n := d.count(leastEntry, "entry count")
	if n == 0 {
		return nil
	}
	own := func(b []byte) []byte {
		if n > 1 {
			return bytes.Clone(b)
		}
		return b
	}
	out := make([]BatchEntry, n)
	for i := range out {
		e := &out[i]
		flags := d.byte1("entry flags")
		if flags&^flagsKnown != 0 {
			d.fail("unknown entry flags")
		}
		e.Rejected, e.Stale = flags&flagRejected != 0, flags&flagStale != 0
		e.Reason = d.str("entry reason")
		e.Arch = d.str("entry arch")
		e.Class = d.str("entry class")
		if flags&flagAttested != 0 {
			att := &attest.Attestation{Arch: e.Arch, Class: e.Class}
			att.Digest = hex.EncodeToString(d.take(sha256.Size, "digest"))
			att.Quorum = d.uvarint("quorum")
			att.Voters = d.strs("voters")
			att.Seal = own(d.bytes("seal"))
			e.Att = att
		}
		e.Data = own(d.bytes("entry data"))
		if d.err != nil {
			return nil
		}
	}
	return out
}

// UnmarshalBinary decodes one request frame. The request's entries may
// alias b.
func (r *BatchRequest) UnmarshalBinary(b []byte) error {
	d := &frameDec{b: b}
	d.header()
	*r = BatchRequest{
		Reason: d.str("reason"), Member: d.str("member"),
		Client: d.str("client"), Arch: d.str("arch"),
		Classes:    d.strs("classes"),
		MaxBytes:   d.uvarint("maxBytes"),
		NoPrefetch: d.flag("noPrefetch"),
		Entries:    d.entries(),
	}
	if r.Reason == reasonVote {
		r.Vote = Proposal{Mode: proxy.SealMode(d.str("seal mode")), Commit: d.bytes("commitment"),
			Voters: d.strs("proposed voters"), Seal: d.bytes("proposal seal"), Payload: d.bytes("vote payload")}
	}
	return d.finish()
}

// UnmarshalBinary decodes one response frame. The response's entries
// may alias b.
func (r *BatchResponse) UnmarshalBinary(b []byte) error {
	d := &frameDec{b: b}
	d.header()
	*r = BatchResponse{Entries: d.entries()}
	if n := d.count(leastError, "error count"); n > 0 {
		r.Errors = make([]BatchError, n)
		for i := range r.Errors {
			r.Errors[i] = BatchError{
				Arch: d.str("error arch"), Class: d.str("error class"),
				Status: d.uvarint("error status"), Error: d.str("error message"),
			}
		}
	}
	if len(d.b) > 0 {
		r.Vote = &Ballot{Digest: hex.EncodeToString(d.take(sha256.Size, "ballot digest")), Kept: d.flag("kept")}
	}
	return d.finish()
}
