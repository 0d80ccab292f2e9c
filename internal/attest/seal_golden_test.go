package attest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/classgen"
)

var updateSeals = flag.Bool("update", false, "rewrite testdata/seal_golden.txt from this tree's seals")

// TestSealBytesGolden pins the sealed record text: every seal and proposal
// MAC below, under a fixed key, equals the one recorded in
// testdata/seal_golden.txt. Seals are kept on disk and checked by nodes of
// other versions, so a change to how a record is laid out — a separator,
// the digest's hex case, how a quorum or a voter list is written — must
// fail here, not between a new node and an old one.
func TestSealBytesGolden(t *testing.T) {
	auth := attest.New(attest.Config{Key: []byte("seal-golden-key")})
	class, err := classgen.NewClass("app/Golden", "java/lang/Object").DefaultInit().BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	classDigest := fmt.Sprint(attest.Digest(class))
	commit := sha256.Sum256([]byte(classDigest))
	fleet := []string{"http://127.0.0.1:8642", "http://127.0.0.1:8643"}

	var got bytes.Buffer
	fmt.Fprintf(&got, "class %s\n", classDigest)
	for _, c := range []struct {
		name        string
		arch, class string
		data        []byte
		quorum      int
		voters      []string
	}{
		{"single-node", "dvm", "app/Main", []byte("class bytes"), 1, nil},
		{"empty-voter-list", "dvm", "app/Main", []byte("class bytes"), 1, []string{}},
		{"voters-with-separators", "jvm", "app/Main", []byte{0xca, 0xfe}, 3, []string{"http://a:1,b", "x\x00y", "", ","}},
		{"quorum-0", "dvm", "app/Zero", nil, 0, []string{"http://a:1"}},
		{"quorum-1", "dvm", "app/One", []byte{0}, 1, []string{"http://a:1"}},
		{"quorum-2^40", "dvm", "app/Big", []byte("big"), 1 << 40, fleet},
		{"negative-quorum", "dvm", "app/Neg", []byte("neg"), -1, nil},
		{"empty-arch", "", "app/NoArch", []byte("bytes"), 2, fleet},
		{"odd-names", "dvm", "a/b$c<d>&é\x00", []byte("odd"), 2, []string{"é", "\x00"}},
		{"real-class", "dvm", "app/Golden", class, 2, fleet},
	} {
		att := auth.Attest(c.arch, c.class, c.data, c.quorum, c.voters)
		if err := auth.Verify(att, c.arch, c.class, c.data); err != nil {
			t.Errorf("%s: a fresh seal does not verify: %v", c.name, err)
		}
		fmt.Fprintf(&got, "seal %s %s %s\n", c.name, att.Digest, hex.EncodeToString(att.Seal))
	}
	for _, c := range []struct {
		name              string
		arch, class, mode string
		commit            []byte
		voters            []string
	}{
		{"transform", "dvm", "app/Golden", "", commit[:], fleet},
		{"compile", "dvm", "app/Golden", "compile", commit[:], fleet},
		{"no-commit", "dvm", "app/Golden", "", nil, fleet},
		{"short-commit", "dvm", "app/Golden", "", []byte{0x00, 0x0f, 0xf0, 0xff, 0xab}, fleet},
		{"no-voters", "dvm", "app/Golden", "", commit[:], nil},
		{"voters-with-separators", "dvm", "app/Golden", "", commit[:], []string{"a,b", "c\x00d", ""}},
		{"empty-arch", "", "app/Golden", "", commit[:], fleet},
	} {
		mac := auth.SealProposal(c.arch, c.class, c.mode, c.commit, c.voters)
		if !auth.VerifyProposal(c.arch, c.class, c.mode, c.commit, c.voters, mac) {
			t.Errorf("proposal %s: a fresh MAC does not verify", c.name)
		}
		fmt.Fprintf(&got, "proposal %s %s\n", c.name, hex.EncodeToString(mac))
	}

	path := filepath.Join("testdata", "seal_golden.txt")
	if *updateSeals {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
