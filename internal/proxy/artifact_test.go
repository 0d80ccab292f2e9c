package proxy

import (
	"bytes"
	"testing"

	"dvm/internal/attest"
)

// TestEntryDigestAllocatesNothing: reading an attested entry costs the
// unattested entry's allocations plus the Attestation and its copy of the
// seal; the digest is copied into the record as 32 bytes, never decoded
// into text.
func TestEntryDigestAllocatesNothing(t *testing.T) {
	data := []byte("\xca\xfe\xba\xbe class bytes")
	sealed := &Artifact{Arch: "dvm", Class: "app/A", Data: data,
		Att: attest.New(attest.Config{Key: []byte("entry-key")}).Attest("dvm", "app/A", data, 1, nil)}
	plain := &Artifact{Arch: "dvm", Class: "app/A", Data: data}
	read := func(a *Artifact) (got Artifact, allocs float64) {
		frame := append(a.AppendEntry(AppendFrameHeader(nil), "", false), a.Data...)
		allocs = testing.AllocsPerRun(100, func() {
			d := OpenFrame(frame)
			got, _, _ = d.Entry(false)
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
		})
		return got, allocs
	}
	got, attested := read(sealed)
	if got.Att == nil || got.Att.Digest != sealed.Att.Digest || !bytes.Equal(got.Att.Seal, sealed.Att.Seal) {
		t.Fatalf("entry read back as %+v, want the record %+v", got.Att, sealed.Att)
	}
	_, unattested := read(plain)
	if extra := attested - unattested; extra > 2 {
		t.Errorf("an attested entry costs %.1f allocations more than an unattested one, want at most 2 (the Attestation and its seal)", extra)
	}
	t.Logf("entry: %.1f allocations unattested, %.1f attested", unattested, attested)
}
