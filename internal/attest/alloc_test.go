package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"dvm/internal/signing"
)

// poolsAreLossy reports whether the test binary was built with -race,
// where sync.Pool drops entries on purpose: a pooled MAC state or record
// buffer is rebuilt now and then, so a pin that counts on the pool only
// logs there.
func poolsAreLossy() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// pinAllocs fails when fn allocates more than limit times a run; a pin that
// counts on a pool only logs under -race.
func pinAllocs(t *testing.T, name string, limit float64, pooled bool, fn func()) {
	t.Helper()
	n := testing.AllocsPerRun(200, fn)
	if n > limit && !(pooled && poolsAreLossy()) {
		t.Errorf("%s: %.1f allocations a call, want at most %.0f", name, n, limit)
	}
	t.Logf("%s: %.1f allocations a call", name, n)
}

// TestSealPathAllocations pins what checking and sealing cost: every check
// allocates nothing on success — the record is appended into a pooled
// buffer and the MAC is a pooled keyed state — and a seal allocates only
// what it returns: the Attestation, its copy of the voters and the seal.
func TestSealPathAllocations(t *testing.T) {
	a := New(Config{Key: []byte("alloc-key")})
	data := []byte("transformed class bytes")
	voters := []string{"http://127.0.0.1:8642", "http://127.0.0.1:8643"}
	att := a.Attest("dvm", "app/Main", data, 2, voters)
	commit := sha256.Sum256([]byte(att.Digest.String()))
	mac := a.SealProposal("dvm", "app/Main", "", commit[:], voters)
	signer := signing.NewSigner([]byte("alloc-key"))
	seal := signer.SealBytes(data)

	pinAllocs(t, "Authority.Verify", 0, true, func() {
		if err := a.Verify(att, "dvm", "app/Main", data); err != nil {
			t.Fatal(err)
		}
	})
	pinAllocs(t, "VerifyProposal", 0, true, func() {
		if !a.VerifyProposal("dvm", "app/Main", "", commit[:], voters, mac) {
			t.Fatal("proposal does not verify")
		}
	})
	pinAllocs(t, "Signer.VerifySeal", 0, true, func() {
		if !signer.VerifySeal(data, seal) {
			t.Fatal("seal does not verify")
		}
	})
	pinAllocs(t, "AttestDigest", 3, true, func() { a.AttestDigest("dvm", "app/Main", att.Digest, 2, voters) })
	votes := []Vote{{voters[1], att.Digest}, {"http://127.0.0.1:8644", att.Digest}}
	pinAllocs(t, "Tally", 0, false, func() {
		if _, ok, minority := Tally(voters[0], att.Digest, votes); !ok || minority != nil {
			t.Fatal("a unanimous round did not agree")
		}
	})
}

// TestPooledMACIsolation: goroutines sealing and checking distinct records
// on one Authority each get exactly the MAC a fresh hmac.New computes, so
// no keyed state carries one message into another.
func TestPooledMACIsolation(t *testing.T) {
	key := []byte("isolation-key")
	a := New(Config{Key: key})
	fresh := func(rec []byte) []byte {
		m := hmac.New(sha256.New, key)
		m.Write([]byte("dvm-seal-v1\x00"))
		m.Write(rec)
		return m.Sum(nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				class := fmt.Sprintf("app/G%dC%d", g, i)
				data := []byte(class + " bytes")
				voters := []string{fmt.Sprintf("http://node%d", g), fmt.Sprintf("http://voter%d", i)}
				att := a.Attest("dvm", class, data, 2, voters)
				if want := fresh(att.appendRecord(nil)); !hmac.Equal(att.Seal, want) {
					t.Errorf("%s: pooled seal %x, fresh MAC %x", class, att.Seal, want)
					return
				}
				if err := a.Verify(att, "dvm", class, data); err != nil {
					t.Errorf("%s: %v", class, err)
					return
				}
				commit := sha256.Sum256(data)
				mac := a.SealProposal("dvm", class, "", commit[:], voters)
				if want := fresh(appendProposalRecord(nil, "dvm", class, "", commit[:], voters)); !hmac.Equal(mac, want) {
					t.Errorf("%s: pooled proposal MAC %x, fresh MAC %x", class, mac, want)
					return
				}
				if !a.VerifyProposal("dvm", class, "", commit[:], voters, mac) {
					t.Errorf("%s: proposal does not verify", class)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
