package cluster

// The batch protocol's wire form: one length-prefixed binary frame per
// request and per response, decoded in place from a buffer the hop read
// in one piece (proxy.ReadSized). The frame header, the field encodings
// and the entry are the artifact codec's (proxy/artifact.go, the one
// definition of the entry layout); this file adds the envelopes:
//
//	request  = str reason, str member, str client, str arch,
//	           n, n × str class, maxBytes, noPrefetch(1 byte), entries,
//	           [reason "vote": str mode, bytes commit, n, n × str voter,
//	            bytes seal, bytes payload]
//	response = entries, n, n × (str arch, str class, status, str message),
//	           [if bytes remain, ballot: digest(32 raw bytes), kept(1 byte)]
//	entries  = n, n × entry

import (
	"io"
	"sync"

	"dvm/internal/attest"
	"dvm/internal/proxy"
)

const leastError = 4 // bytes of the least BatchError: two strings, status, message

// frameEnc builds a frame as runs — metadata, payload, metadata, … — so a
// payload (an Artifact's Data) is never copied on its way to the wire. A
// closed run stays valid as meta grows: appends never rewrite its bytes.
// Encoders are recycled (free) once their frame is on the wire.
type frameEnc struct {
	meta []byte
	runs [][]byte // closed runs; the open one is meta[from:]
	from int
}

// The largest encoder free keeps: room for any fill, vote or push; a
// handoff's long entry list is not pinned in the pool.
const (
	maxPooledMeta = 4 << 10
	maxPooledRuns = 64
)

var framePool = sync.Pool{New: func() any { return &frameEnc{meta: make([]byte, 0, 256)} }}

func newFrameEnc() *frameEnc {
	f := framePool.Get().(*frameEnc)
	f.meta = proxy.AppendFrameHeader(f.meta[:0])
	return f
}

// free recycles f. Nothing may still read its frame: the runs are
// dropped, so a recycled encoder pins no payload.
func (f *frameEnc) free() {
	if cap(f.meta) > maxPooledMeta || cap(f.runs) > maxPooledRuns {
		return
	}
	clear(f.runs)
	f.runs, f.from = f.runs[:0], 0
	framePool.Put(f)
}

func (f *frameEnc) uvarint(v int)       { f.meta = proxy.AppendUvarint(f.meta, v) }
func (f *frameEnc) str(s string)        { f.meta = proxy.AppendStr(f.meta, s) }
func (f *frameEnc) strs(ss []string)    { f.meta = proxy.AppendStrs(f.meta, ss) }
func (f *frameEnc) blob(b []byte)       { f.meta = proxy.AppendBytes(f.meta, b) }
func (f *frameEnc) digest(d attest.Sum) { f.meta = proxy.AppendDigest(f.meta, d) }

func (f *frameEnc) flag(b bool) {
	if b {
		f.meta = append(f.meta, 1)
	} else {
		f.meta = append(f.meta, 0)
	}
}

// entries writes each entry through the codec, its data as a run.
func (f *frameEnc) entries(es []BatchEntry) {
	f.uvarint(len(es))
	for i := range es {
		e := &es[i]
		a := proxy.Artifact{Arch: e.Arch, Class: e.Class, Data: e.Data, Att: e.Att, Rejected: e.Rejected}
		f.meta = a.AppendEntry(f.meta, e.Reason, e.Stale)
		f.splice(e.Data)
	}
}

// splice closes the open metadata run and puts b in as a run of its own.
func (f *frameEnc) splice(b []byte) {
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

// wire is the frame as the runs a request body sends, in order. It takes
// the place of further encoding: f is only freed after it.
func (f *frameEnc) wire() [][]byte { return append(f.runs, f.meta[f.from:]) }

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
		f.uvarint(len(v.Payload))
		f.splice(v.Payload)
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
func (r *BatchRequest) MarshalBinary() ([]byte, error) {
	f := r.encode()
	defer f.free()
	return f.appendTo(nil), nil
}

// decodeEntries decodes the entry list. A lone entry's Data aliases the
// frame: the frame is barely larger than the class, and the
// read buffer becomes the artifact. Several entries are copied out one
// by one, so an artifact that outlives the batch never pins a frame
// larger than itself.
func decodeEntries(d *proxy.Cursor) []BatchEntry {
	n := d.Count(proxy.LeastEntry, "entry count")
	if n == 0 {
		return nil
	}
	out := make([]BatchEntry, n)
	for i := range out {
		a, reason, stale := d.Entry(n > 1)
		out[i] = BatchEntry{Arch: a.Arch, Class: a.Class, Reason: reason, Data: a.Data, Att: a.Att, Rejected: a.Rejected, Stale: stale}
	}
	return out
}

// UnmarshalBinary decodes one request frame. The request's entries may
// alias b.
func (r *BatchRequest) UnmarshalBinary(b []byte) error {
	d := proxy.OpenFrame(b)
	*r = BatchRequest{
		Reason: d.Str("reason"), Member: d.Str("member"),
		Client: d.Str("client"), Arch: d.Str("arch"),
		Classes:    d.Strs("classes"),
		MaxBytes:   d.Uvarint("maxBytes"),
		NoPrefetch: d.Flag("noPrefetch"),
		Entries:    decodeEntries(&d),
	}
	if r.Reason == reasonVote {
		r.Vote = Proposal{Mode: proxy.SealMode(d.Str("seal mode")), Commit: d.Bytes("commitment"),
			Voters: d.Strs("proposed voters"), Seal: d.Bytes("proposal seal"), Payload: d.Bytes("vote payload")}
	}
	return d.Finish()
}

// UnmarshalBinary decodes one response frame. The response's entries
// may alias b.
func (r *BatchResponse) UnmarshalBinary(b []byte) error {
	d := proxy.OpenFrame(b)
	*r = BatchResponse{Entries: decodeEntries(&d)}
	if n := d.Count(leastError, "error count"); n > 0 {
		r.Errors = make([]BatchError, n)
		for i := range r.Errors {
			r.Errors[i] = BatchError{
				Arch: d.Str("error arch"), Class: d.Str("error class"),
				Status: d.Uvarint("error status"), Error: d.Str("error message"),
			}
		}
	}
	if d.Len() > 0 {
		r.Vote = &Ballot{Digest: d.Digest("ballot digest"), Kept: d.Flag("kept")}
	}
	return d.Finish()
}
