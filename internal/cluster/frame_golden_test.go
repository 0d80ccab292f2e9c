package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dvm/internal/proxy"
)

// The frame tests' names for the artifact codec's header, flag and error.
const (
	frameMagic   = proxy.FrameMagic
	frameVersion = proxy.FrameVersion
	flagAttested = proxy.FlagAttested
)

var errFrame = proxy.ErrFrame

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames/ from this tree's frame encoder")

// TestFrameBytesGolden pins the wire: every seed frame encodes to the
// bytes recorded in testdata/frames/. TestFrameRoundTrip compares the
// encoder only with itself, so a codec change that moved a byte would
// pass there and fail only between a new node and an old one.
func TestFrameBytesGolden(t *testing.T) {
	requests, responses := seedFrames(t)
	dir := filepath.Join("testdata", "frames")
	check := func(name string, f *frameEnc) {
		path, got := filepath.Join(dir, name), f.bytes()
		if *updateFrames {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			t.Errorf("%s: %d bytes differ from the recorded %d from byte %d on", name, len(got), len(want), at)
		}
	}
	for i, f := range requests {
		check(fmt.Sprintf("request-%d.bin", i), f)
	}
	for i, f := range responses {
		check(fmt.Sprintf("response-%d.bin", i), f)
	}
}
