package attest

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// decodeAllocLimit bounds what decoding an n-byte header value may
// allocate: the base64 payload (3/4 of n) and what JSON decoding builds
// from it, every element of which is backed by at least one input byte;
// the constant covers the record and the error value.
func decodeAllocLimit(n int) uint64 { return uint64(32*n) + 4096 }

// allocated reports the bytes fn allocates; a reading over limit is
// retaken, because another goroutine (the fuzz worker's plumbing) can
// allocate inside the window and a decoder that really over-allocates
// does so every time.
func allocated(limit uint64, fn func()) uint64 {
	var least uint64
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if cost := after.TotalAlloc - before.TotalAlloc; try == 0 || cost < least {
			least = cost
		}
		if least <= limit {
			break
		}
	}
	return least
}

// checkDecode is the fuzz property for one header value: Decode never
// panics or allocates past the bound, and an accepted header re-encodes
// to a value that decodes to the same record — the bytes the seal
// covers, the voters and the seal — and re-encodes to itself.
func checkDecode(t *testing.T, s string) {
	var a *Attestation
	var err error
	limit := decodeAllocLimit(len(s))
	if cost := allocated(limit, func() { a, err = Decode(s) }); cost > limit {
		t.Errorf("Decode allocated %d bytes for a %d-byte header (limit %d)", cost, len(s), limit)
	}
	if err != nil {
		return
	}
	enc := a.Encode()
	b, err := Decode(enc)
	if err != nil {
		t.Fatalf("accepted header re-encodes to %q, which does not decode: %v", enc, err)
	}
	if !bytes.Equal(a.appendRecord(nil), b.appendRecord(nil)) || !bytes.Equal(a.Seal, b.Seal) || !slices.Equal(a.Voters, b.Voters) {
		t.Errorf("accepted header does not round-trip:\n%+v\n%+v", a, b)
	}
	if again := b.Encode(); again != enc {
		t.Errorf("re-encoding is not a fixed point:\n%s\n%s", enc, again)
	}
}

// FuzzAttestDecode feeds arbitrary header values to Decode. Seeds: real
// seals (single-node, quorum with voters, odd names), each cut at every
// byte, and hand-made values that are valid base64 around bad JSON or
// JSON of the wrong shape.
func FuzzAttestDecode(f *testing.F) {
	auth := New(Config{Key: []byte("fuzz-service-key")})
	for _, att := range []*Attestation{
		auth.Attest("dvm", "net/Applet001", []byte("class bytes"), 1, nil),
		auth.Attest("jvm", "app/Main", []byte{0xca, 0xfe, 0xba, 0xbe}, 2, []string{"http://127.0.0.1:8642", "http://127.0.0.1:8643"}),
		auth.AttestDigest("dvm", "a/b$c<d>&é", Sum{}, 3, []string{"x", "", "y,z"}),
	} {
		enc := att.Encode()
		for i := 0; i <= len(enc); i++ {
			f.Add(enc[:i])
		}
		f.Add(enc + "A")
	}
	for _, s := range []string{
		"",
		"!!!!",
		"bnVsbA",                          // null
		"W10",                             // []
		"eyJxdW9ydW0iOiJ0d28ifQ",          // {"quorum":"two"}
		"eyJ2b3RlcnMiOltdLCJzZWFsIjoiIn0", // {"voters":[],"seal":""}
		"eyJzZWFsIjoiKioqIn0",             // {"seal":"***"}
		"eyJhcmNoIjoiXHVkODAwIiwicXVvcnVtIjoxZTJ9",                        // {"arch":"\ud800","quorum":1e2}
		"eyJBUkNIIjoiZHZtIiwiYXJjaCI6Imp2bSIsInZvdGVycyI6WyJcdTAwM2MiXX0", // {"ARCH":"dvm","arch":"jvm","voters":["<"]}
	} {
		f.Add(s)
	}
	f.Fuzz(checkDecode)
}
