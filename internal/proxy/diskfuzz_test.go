package proxy

import (
	"bytes"
	"io"
	"log"
	"os"
	"reflect"
	"runtime"
	"testing"

	"dvm/internal/attest"
)

const fuzzDiskKey = "dvm\x00app/A"

// diskSeedFiles saves a sealed artifact and a rejected one under
// fuzzDiskKey and returns the files the saves wrote.
func diskSeedFiles(tb testing.TB) [][]byte {
	tb.Helper()
	data := []byte("\xca\xfe\xba\xbe\x00\x00\x00\x31 class bytes")
	sealed := &Artifact{Arch: "dvm", Class: "app/A", Data: data,
		Att: attest.New(attest.Config{Key: []byte("disk-fuzz-key")}).Attest("dvm", "app/A", data, 2, []string{"http://a:1", "http://b:1"})}
	rejected := &Artifact{Arch: "dvm", Class: "app/A", Data: data, Rejected: true}
	var files [][]byte
	for _, art := range []*Artifact{sealed, rejected} {
		s := New(MapOrigin{}, Config{CacheEnabled: true, DiskCacheDir: tb.TempDir()}).store
		s.save(art)
		b, err := os.ReadFile(s.path(fuzzDiskKey))
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, b)
	}
	return files
}

// loadCost runs prepare, then load, and reports the bytes load
// allocated. Another goroutine can allocate inside the window, so a
// reading over limit is retaken: a load that really over-allocates does
// so every time.
func loadCost(limit uint64, prepare, load func()) uint64 {
	var least uint64
	for try := 0; try < 4; try++ {
		prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
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

// FuzzDiskEntry writes its input as a key's disk file and loads it the
// way a restarted proxy does, key and seal checks included. A load never
// panics and allocates within FuzzPeerFrame's bound; a file it accepts
// saves back to the same bytes and reloads with the same Rejected and
// Att, and one it refuses is counted and removed.
func FuzzDiskEntry(f *testing.F) {
	for _, file := range diskSeedFiles(f) {
		for end := 0; end <= len(file); end++ {
			f.Add(file[:end])
		}
		// The empty reason's length in two bytes: it decodes to the same
		// entry, so only the shortest-form rule keeps a file's bytes one
		// to one with what it says.
		f.Add(bytes.Join([][]byte{file[:6], {0x80, 0}, file[7:]}, nil))
	}
	out := log.Writer()
	log.SetOutput(io.Discard) // every refused file logs its discard
	f.Cleanup(func() { log.SetOutput(out) })
	f.Fuzz(func(t *testing.T, b []byte) {
		limit := uint64(32*len(b)) + 4096
		var s *store
		var art *Artifact
		prepare := func() {
			s = New(MapOrigin{}, Config{CacheEnabled: true, DiskCacheDir: t.TempDir()}).store
			if err := os.WriteFile(s.path(fuzzDiskKey), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if cost := loadCost(limit, prepare, func() { art, _ = s.load(fuzzDiskKey) }); cost > limit {
			t.Errorf("load allocated %d bytes for a %d-byte file (limit %d)", cost, len(b), limit)
		}
		path := s.path(fuzzDiskKey)
		if art == nil {
			if _, err := os.Stat(path); err == nil || s.m.DiskCorrupt.Load() != 1 {
				t.Errorf("a refused file was left in place (%v) or not counted (%d)", err, s.m.DiskCorrupt.Load())
			}
			return
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		s.save(art)
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted file saves back to different bytes (%v):\n%x\n%x", err, b, again)
		}
		re, _ := New(MapOrigin{}, Config{CacheEnabled: true, DiskCacheDir: s.dir}).store.load(fuzzDiskKey)
		if re == nil || !bytes.Equal(re.Data, art.Data) || re.Rejected != art.Rejected || !reflect.DeepEqual(re.Att, art.Att) {
			t.Errorf("accepted file reloads as %+v, want %+v", re, art)
		}
	})
}
