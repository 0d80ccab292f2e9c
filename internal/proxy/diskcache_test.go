package proxy_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

func TestDiskCacheSurvivesProxyRestart(t *testing.T) {
	dir := t.TempDir()
	org := origin(t)
	cfg := proxy.Config{
		Pipeline:     rewrite.NewPipeline(verifier.Filter()),
		CacheEnabled: true,
		DiskCacheDir: dir,
	}
	p1 := proxy.New(org, cfg)
	first, err := p1.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stats().OriginFetches != 1 {
		t.Fatalf("stats = %+v", p1.Stats())
	}

	// "Restart": a fresh proxy over the same disk cache — but a broken
	// origin, proving the class is served from disk, not refetched.
	p2 := proxy.New(proxy.MapOrigin{}, cfg)
	second, err := p2.Request(context.Background(), proxy.Lookup{Client: "c2", Arch: "dvm", Class: "app/Dep"})
	if err != nil {
		t.Fatalf("restarted proxy could not serve from disk: %v", err)
	}
	if string(first.Data) != string(second.Data) {
		t.Fatal("disk-cached bytes differ")
	}
	st := p2.Stats()
	if st.CacheHits != 1 || st.OriginFetches != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskCacheKeyedByArch(t *testing.T) {
	dir := t.TempDir()
	org := origin(t)
	cfg := proxy.Config{
		Pipeline:     rewrite.NewPipeline(verifier.Filter()),
		CacheEnabled: true,
		DiskCacheDir: dir,
	}
	p := proxy.New(org, cfg)
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	// A different arch must not hit the dvm entry.
	p2 := proxy.New(org, cfg)
	if _, err := p2.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "x86-jdk", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if p2.Stats().OriginFetches != 1 {
		t.Errorf("arch keying broken: %+v", p2.Stats())
	}
}

func TestDiskCacheUnwritableDegradesGracefully(t *testing.T) {
	org := origin(t)
	cfg := proxy.Config{
		Pipeline:     rewrite.NewPipeline(),
		CacheEnabled: true,
		DiskCacheDir: "/dev/null/impossible", // cannot mkdir here
	}
	p := proxy.New(org, cfg)
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatalf("unwritable disk cache failed the request: %v", err)
	}
	// Memory cache still works.
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
		t.Fatal(err)
	}
	if p.Stats().CacheHits != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

// diskEntry returns the path of the one class file in a disk cache dir.
func diskEntry(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.class"))
	if err != nil || len(files) != 1 {
		t.Fatalf("disk cache holds %v (%v), want one class file", files, err)
	}
	return files[0]
}

// TestDiskProbeRunsOncePerFlight: N concurrent requests for a key that
// is only on disk cost one file read — the flight leader's — and the
// rest coalesce onto it. The disk entry is swapped for a FIFO so the
// read blocks until every follower has demonstrably joined.
func TestDiskProbeRunsOncePerFlight(t *testing.T) {
	dir := t.TempDir()
	cfg := proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true, DiskCacheDir: dir}
	lookup := proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}
	first, err := proxy.New(origin(t), cfg).Request(context.Background(), lookup)
	if err != nil {
		t.Fatal(err)
	}
	path := diskEntry(t, dir)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}

	// A restarted proxy over a broken origin: only the disk can answer.
	p := proxy.New(proxy.MapOrigin{}, cfg)
	const n = 8
	type result struct {
		res proxy.Result
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := p.Request(context.Background(), lookup)
			results <- result{res, err}
		}()
	}
	waitFor(t, "every request to be waiting on one flight", func() bool {
		return p.Health().Gauges["flight_waiters"] == n
	})
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(saved); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request failed: %v", r.err)
		}
		if !bytes.Equal(r.res.Data, first.Data) || !r.res.Info.CacheHit {
			t.Errorf("served %d bytes, CacheHit=%v; want the disk entry as a hit", len(r.res.Data), r.res.Info.CacheHit)
		}
	}
	if st := p.Stats(); st.Coalesced != n-1 || st.CacheHits != n || st.OriginFetches != 0 {
		t.Errorf("coalesced=%d hits=%d originFetches=%d, want %d/%d/0", st.Coalesced, st.CacheHits, st.OriginFetches, n-1, n)
	}
}

// sealFleet is a one-node fleet that owns every key and seals with the
// function.
type sealFleet func(*proxy.Artifact) (*attest.Attestation, error)

func (sealFleet) Fill(context.Context, proxy.Lookup) proxy.PeerResult { return proxy.PeerResult{} }
func (f sealFleet) Seal(_ context.Context, art *proxy.Artifact, _ []byte) (*attest.Attestation, error) {
	return f(art)
}

// TestSealFailureFailsFlight: a node never keeps or serves bytes its
// fleet did not seal. When the seal round fails, the request returns the
// fleet's error, the failure is counted, and the artifact reaches
// neither the memory store nor the disk tier.
func TestSealFailureFailsFlight(t *testing.T) {
	dir := t.TempDir()
	wantErr := errors.New("fleet outvoted the local pipeline")
	p := proxy.New(origin(t), proxy.Config{
		Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true, DiskCacheDir: dir,
		Fleet: sealFleet(func(*proxy.Artifact) (*attest.Attestation, error) { return nil, wantErr }),
	})
	_, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Main"})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Request returned %v, want it to wrap %v", err, wantErr)
	}
	if got := p.Telemetry().CounterValues()["attest_failures_total"]; got != 1 {
		t.Errorf("attest_failures_total = %d, want 1", got)
	}
	if proxy.Cached(p, "dvm", "app/Main") != nil {
		t.Error("the unsealed artifact is resident")
	}
	if files, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(files) != 0 {
		t.Errorf("the disk tier holds %v (%v), want nothing", files, err)
	}
}

// TestDiskCacheDiscardsTamperedEntry: bytes that no longer match their
// seal are discarded and counted on load, never served — the class is
// re-derived from the origin instead.
func TestDiskCacheDiscardsTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	auth := attest.New(attest.Config{Key: []byte("disk-test-key")})
	cfg := proxy.Config{
		Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true, DiskCacheDir: dir,
		Fleet: sealFleet(func(a *proxy.Artifact) (*attest.Attestation, error) {
			return auth.Attest(a.Arch, a.Class, a.Data, 1, nil), nil
		}),
	}
	lookup := proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}
	first, err := proxy.New(origin(t), cfg).Request(context.Background(), lookup)
	if err != nil {
		t.Fatal(err)
	}
	if first.Info.Attestation == nil {
		t.Fatal("artifact was not sealed")
	}
	path := diskEntry(t, dir)
	rotted := append([]byte(nil), first.Data...)
	rotted[len(rotted)-1] ^= 0xff
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	p := proxy.New(origin(t), cfg)
	res, err := p.Request(context.Background(), lookup)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, first.Data) || res.Info.CacheHit {
		t.Errorf("served %d bytes, CacheHit=%v; want the class re-derived from the origin", len(res.Data), res.Info.CacheHit)
	}
	if got := p.Telemetry().CounterValues()["disk_corrupt_total"]; got != 1 {
		t.Errorf("disk_corrupt_total = %d, want 1", got)
	}
	if got := p.Stats().OriginFetches; got != 1 {
		t.Errorf("origin fetches = %d, want 1", got)
	}
	// The re-derived artifact replaced the rotted file: a restart serves it.
	again, err := proxy.New(proxy.MapOrigin{}, cfg).Request(context.Background(), lookup)
	if err != nil || !bytes.Equal(again.Data, first.Data) || again.Info.Attestation == nil {
		t.Errorf("after repair: %d bytes, att=%v, err=%v; want the sealed artifact from disk", len(again.Data), again.Info.Attestation, err)
	}
}

// TestTornSaveNeverChangesWhatLoads: a save cut short by a crash — any
// file it writes truncated at any byte, or never written at all — must
// reload as a miss or as exactly what was saved. Bytes that come back
// without their seal, or a verification-failure replacement that comes
// back as a plain class, would be served as something they are not.
func TestTornSaveNeverChangesWhatLoads(t *testing.T) {
	bad := classgen.NewClass("bad/A", "java/lang/Object")
	bad.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I").Return() // declares ()I, returns void
	badBytes, err := bad.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	org := origin(t)
	org["bad/A"] = badBytes
	auth := attest.New(attest.Config{Key: []byte("torn-save-key")})
	sealed := sealFleet(func(a *proxy.Artifact) (*attest.Attestation, error) {
		return auth.Attest(a.Arch, a.Class, a.Data, 1, nil), nil
	})
	for _, tc := range []struct {
		name, class string
		fleet       proxy.Fleet
	}{
		{"sealed", "app/Dep", sealed},
		{"rejected", "bad/A", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true, DiskCacheDir: dir, Fleet: tc.fleet}
			lookup := proxy.Lookup{Client: "c", Arch: "dvm", Class: tc.class}
			saved, err := proxy.New(org, cfg).Request(context.Background(), lookup)
			if err != nil {
				t.Fatal(err)
			}
			if (tc.fleet != nil) != (saved.Info.Attestation != nil) || (tc.fleet == nil) != saved.Info.Rejected {
				t.Fatalf("saved Rejected=%v Att=%v; want the %s artifact", saved.Info.Rejected, saved.Info.Attestation, tc.name)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil || len(files) == 0 {
				t.Fatalf("the save wrote %v (%v)", files, err)
			}
			wrote := make(map[string][]byte)
			for _, path := range files {
				if wrote[path], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			for _, path := range files {
				for cut := -1; cut <= len(wrote[path]); cut++ { // -1: the file was never written
					for p, b := range wrote { // a discarded entry may have taken other files with it
						if err := os.WriteFile(p, b, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					os.Remove(path)
					if cut >= 0 {
						if err := os.WriteFile(path, wrote[path][:cut], 0o644); err != nil {
							t.Fatal(err)
						}
					}
					res, err := proxy.New(proxy.MapOrigin{}, cfg).Request(context.Background(), lookup)
					if err == nil && (!bytes.Equal(res.Data, saved.Data) || res.Info.Rejected != saved.Info.Rejected ||
						!reflect.DeepEqual(res.Info.Attestation, saved.Info.Attestation)) {
						t.Errorf("%s cut at %d of %d bytes reloads %d bytes, Rejected=%v, Att=%v; want a miss or what was saved",
							filepath.Base(path), cut, len(wrote[path]), len(res.Data), res.Info.Rejected, res.Info.Attestation)
						break
					}
				}
			}
		})
	}
}
