package attest

import (
	"bytes"
	"errors"
	"testing"
)

func TestAttestVerifyRoundTrip(t *testing.T) {
	a := New(Config{Key: []byte("service-key")})
	data := []byte("transformed class bytes")
	att := a.Attest("sparc", "net/Applet001", data, 2, []string{"http://a", "http://b"})
	if att.Digest != Digest(data) {
		t.Fatalf("digest = %s, want %s", att.Digest, Digest(data))
	}
	if err := a.Verify(att, "sparc", "net/Applet001", data); err != nil {
		t.Fatalf("fresh attestation does not verify: %v", err)
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	a := New(Config{Key: []byte("k")})
	data := []byte("honest bytes")
	att := a.Attest("x86", "C", data, 1, nil)
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if err := a.Verify(att, "x86", "C", bad); !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
}

func TestVerifyRejectsTamperedRecord(t *testing.T) {
	a := New(Config{Key: []byte("k")})
	data := []byte("honest bytes")
	att := a.Attest("x86", "C", data, 1, nil)

	forged := *att
	forged.Quorum = 3 // inflate claimed trust
	if err := a.Verify(&forged, "x86", "C", data); !errors.Is(err, ErrVerify) {
		t.Fatalf("quorum forgery: err = %v, want ErrVerify", err)
	}
	forged = *att
	forged.Voters = []string{"http://attacker"}
	if err := a.Verify(&forged, "x86", "C", data); !errors.Is(err, ErrVerify) {
		t.Fatalf("voter forgery: err = %v, want ErrVerify", err)
	}
}

func TestVerifyRejectsForeignKeyAndKeyMismatch(t *testing.T) {
	a := New(Config{Key: []byte("key-A")})
	b := New(Config{Key: []byte("key-B")})
	data := []byte("bytes")
	att := a.Attest("x86", "C", data, 1, nil)
	if err := b.Verify(att, "x86", "C", data); !errors.Is(err, ErrVerify) {
		t.Fatalf("foreign key: err = %v, want ErrVerify", err)
	}
	if err := a.Verify(att, "x86", "Other", data); !errors.Is(err, ErrVerify) {
		t.Fatalf("class mismatch: err = %v, want ErrVerify", err)
	}
	if err := a.Verify(nil, "x86", "C", data); !errors.Is(err, ErrUnattested) {
		t.Fatalf("nil attestation: err = %v, want ErrUnattested", err)
	}
}

// TestProposalSealBindsEveryField: a proposal MAC verifies for the offer
// it was made over and for no offer that differs in one field, under no
// other key, and it is never an attestation seal.
func TestProposalSealBindsEveryField(t *testing.T) {
	a := New(Config{Key: []byte("k")})
	commit := []byte("0123456789abcdef0123456789abcdef")
	voters := []string{"http://a:1", "http://b:2"}
	mac := a.SealProposal("dvm", "app/C", "", commit, voters)
	if !a.VerifyProposal("dvm", "app/C", "", commit, voters, mac) {
		t.Fatal("a fresh proposal does not verify")
	}
	other := []byte("fedcba9876543210fedcba9876543210")
	for name, ok := range map[string]bool{
		"arch":      a.VerifyProposal("jvm", "app/C", "", commit, voters, mac),
		"class":     a.VerifyProposal("dvm", "app/D", "", commit, voters, mac),
		"mode":      a.VerifyProposal("dvm", "app/C", "compile", commit, voters, mac),
		"commit":    a.VerifyProposal("dvm", "app/C", "", other, voters, mac),
		"voters":    a.VerifyProposal("dvm", "app/C", "", commit, []string{"http://a:1", "http://evil:2"}, mac),
		"no MAC":    a.VerifyProposal("dvm", "app/C", "", commit, voters, nil),
		"other key": New(Config{Key: []byte("other")}).VerifyProposal("dvm", "app/C", "", commit, voters, mac),
	} {
		if ok {
			t.Errorf("a proposal with another %s verifies", name)
		}
	}
	att := a.AttestDigest("dvm", "app/C", Sum(commit), 2, voters)
	if bytes.Equal(att.Seal, mac) || a.VerifyProposal("dvm", "app/C", "", commit, voters, att.Seal) {
		t.Error("an attestation seal stands in for a proposal MAC")
	}
}

func TestEncodeDecodeHeader(t *testing.T) {
	a := New(Config{Key: []byte("k")})
	att := a.Attest("sparc", "net/App", []byte("payload"), 2, []string{"http://a:1", "http://b:2"})
	got, err := Decode(att.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(got, "sparc", "net/App", []byte("payload")); err != nil {
		t.Fatalf("decoded attestation does not verify: %v", err)
	}
	if _, err := Decode(""); !errors.Is(err, ErrUnattested) {
		t.Fatalf("empty header: err = %v, want ErrUnattested", err)
	}
	if _, err := Decode("!!not base64!!"); err == nil {
		t.Fatal("garbage header decoded")
	}
}

func TestPolicyQuorumFor(t *testing.T) {
	always := Policy{Quorum: 3, Mode: ModeAlways}
	if q := always.QuorumFor("x86", "C"); q != 3 {
		t.Errorf("always: q = %d, want 3", q)
	}
	if q := (Policy{Quorum: 1, Mode: ModeAlways}).QuorumFor("x86", "C"); q != 1 {
		t.Errorf("quorum 1: q = %d, want 1", q)
	}
	if q := (Policy{Quorum: 2}).QuorumFor("x86", "C"); q != 2 {
		t.Errorf("empty mode: q = %d, want 2 (every key at the quorum)", q)
	}
}

func TestTally(t *testing.T) {
	self := "http://self"
	d1, d2, d3, dX := Sum{1}, Sum{2}, Sum{3}, Sum{0xff}
	// Unanimous agreement.
	maj, ok, min := Tally(self, d1, []Vote{{"http://b", d1}, {"http://c", d1}})
	if !ok || maj != d1 || len(min) != 0 {
		t.Fatalf("unanimous: maj=%v min=%v", maj, min)
	}
	// Variant is the minority.
	maj, ok, min = Tally(self, d1, []Vote{{"http://b", d2}, {"http://c", d1}})
	if !ok || maj != d1 || len(min) != 1 || min[0] != "http://b" {
		t.Fatalf("variant minority: maj=%v min=%v", maj, min)
	}
	// Local node is the minority.
	maj, ok, min = Tally(self, dX, []Vote{{"http://b", d1}, {"http://c", d1}})
	if !ok || maj != d1 || len(min) != 1 || min[0] != self {
		t.Fatalf("local minority: maj=%v min=%v", maj, min)
	}
	// 1-vs-1 split: no strict majority.
	maj, ok, _ = Tally(self, d1, []Vote{{"http://b", d2}})
	if ok {
		t.Fatalf("split: maj=%v, want none", maj)
	}
	// Three-way disagreement: no majority either.
	maj, ok, _ = Tally(self, d1, []Vote{{"http://b", d2}, {"http://c", d3}})
	if ok {
		t.Fatalf("three-way: maj=%v, want none", maj)
	}
	// Quorum 1: no votes, local wins trivially.
	maj, ok, min = Tally(self, d1, nil)
	if !ok || maj != d1 || len(min) != 0 {
		t.Fatalf("quorum 1: maj=%v min=%v", maj, min)
	}
}
