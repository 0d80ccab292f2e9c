package proxy_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dvm/internal/attest"
	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/compiler"
	"dvm/internal/proxy"
)

// aotProxy builds a cached proxy whose AOT layer derives compiler.ArchDVM
// artifacts from the "jvm" base architecture.
func aotProxy(t *testing.T, o proxy.Origin, fleet proxy.Fleet) *proxy.Proxy {
	t.Helper()
	return proxy.New(o, proxy.Config{
		Pipeline:     fullPipeline(t),
		CacheEnabled: true,
		AOTBaseArch:  "jvm",
		Fleet:        fleet,
	})
}

// sealFleet is a one-node fleet that owns every key and seals with the
// given function per mode (nil = that mode is not attested).
type sealFleet map[proxy.SealMode]func(*proxy.Artifact) (*attest.Attestation, error)

func (sealFleet) Fill(context.Context, proxy.Lookup) proxy.PeerResult { return proxy.PeerResult{} }
func (f sealFleet) Seal(_ context.Context, art *proxy.Artifact, _ []byte, mode proxy.SealMode) (*attest.Attestation, error) {
	if seal := f[mode]; seal != nil {
		return seal(art)
	}
	return nil, nil
}

// TestAOTDeriveMatchesFullPipeline is the AOT cache's core invariant:
// deriving the compiled artifact from the cached base-architecture
// artifact produces byte-identical output to running the full pipeline
// with the DVM architecture — and does so without a second origin fetch.
func TestAOTDeriveMatchesFullPipeline(t *testing.T) {
	o := origin(t)

	// Reference: a plain proxy runs the full pipeline for the DVM arch.
	ref := proxy.New(o, proxy.Config{Pipeline: fullPipeline(t), CacheEnabled: true})
	want, err := ref.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"})
	if err != nil {
		t.Fatalf("reference request: %v", err)
	}

	p := aotProxy(t, o, nil)
	// First, the base-architecture artifact lands in the cache.
	base, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "jvm", Class: "app/Main"})
	if err != nil {
		t.Fatalf("base request: %v", err)
	}
	if got := p.Stats().OriginFetches; got != 1 {
		t.Fatalf("base request made %d origin fetches, want 1", got)
	}

	// The DVM-arch miss must be served by derivation: no origin hop.
	res, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"})
	if err != nil {
		t.Fatalf("derive request: %v", err)
	}
	st := p.Stats()
	if st.OriginFetches != 1 {
		t.Errorf("derive path fetched from origin (%d fetches, want 1)", st.OriginFetches)
	}
	if st.CompileMisses != 1 {
		t.Errorf("compile_misses = %d, want 1", st.CompileMisses)
	}
	if !bytes.Equal(res.Data, want.Data) {
		t.Fatalf("derived artifact differs from full-pipeline output (%d vs %d bytes)", len(res.Data), len(want.Data))
	}
	if bytes.Equal(res.Data, base.Data) {
		t.Fatal("derived artifact is identical to the base artifact: compiler did not run")
	}

	// A second DVM-arch request is a cache hit: no new compilation.
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"}); err != nil {
		t.Fatalf("hit request: %v", err)
	}
	st = p.Stats()
	if st.CompileMisses != 1 || st.CompileHits != 1 {
		t.Errorf("after hit: compile_misses=%d compile_hits=%d, want 1/1", st.CompileMisses, st.CompileHits)
	}
}

// badClassOrigin serves one class whose verification must fail: run()
// declares ()I but returns nothing on a falling-off code path.
func badClassOrigin(t *testing.T) proxy.MapOrigin {
	t.Helper()
	b := classgen.NewClass("app/Bad", "java/lang/Object")
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "run", "()I")
	m.Return() // void return from an int method: phase-3 rejection
	raw, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	return proxy.MapOrigin{"app/Bad": raw}
}

// TestAOTSkipsRejectedBase: a rejection replacement must never be fed to
// the compiler. The DVM-arch request takes the regular path (origin +
// pipeline) and serves the same replacement; no compilation is counted
// for it, and the cached rejection flag survives later hits.
func TestAOTSkipsRejectedBase(t *testing.T) {
	p := aotProxy(t, badClassOrigin(t), nil)

	baseRes, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "jvm", Class: "app/Bad"})
	if err != nil {
		t.Fatalf("base request: %v", err)
	}
	if !baseRes.Info.Rejected {
		t.Fatal("base request was not rejected")
	}

	res, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Bad"})
	if err != nil {
		t.Fatalf("dvm request: %v", err)
	}
	if !res.Info.Rejected {
		t.Fatal("dvm request lost the rejection flag")
	}
	st := p.Stats()
	if st.OriginFetches != 2 {
		t.Errorf("origin fetches = %d, want 2 (rejected base must not be derived from)", st.OriginFetches)
	}
	if st.CompileMisses != 0 {
		t.Errorf("compile_misses = %d, want 0 for a rejected class", st.CompileMisses)
	}
	if !bytes.Equal(res.Data, baseRes.Data) {
		t.Error("rejection replacement differs between architectures")
	}

	// The rejection flag must survive the cache: a later hit reports it.
	hit, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "jvm", Class: "app/Bad"})
	if err != nil {
		t.Fatalf("hit request: %v", err)
	}
	if !hit.Info.CacheHit || !hit.Info.Rejected {
		t.Errorf("cache hit lost flags: CacheHit=%v Rejected=%v, want true/true", hit.Info.CacheHit, hit.Info.Rejected)
	}
}

// TestAOTAttestCompileFailureFailsFlight: the derive path honors the
// same trust rule as the transform path — if the compile-mode quorum
// rejects the derived bytes, the flight fails and nothing is cached.
func TestAOTAttestCompileFailureFailsFlight(t *testing.T) {
	wantErr := errors.New("fleet outvoted local compiler")
	p := aotProxy(t, origin(t), sealFleet{proxy.SealCompile: func(*proxy.Artifact) (*attest.Attestation, error) {
		return nil, wantErr
	}})
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "jvm", Class: "app/Main"}); err != nil {
		t.Fatalf("base request: %v", err)
	}
	_, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("derive with failing attestation returned %v, want wrapped %v", err, wantErr)
	}
	st := p.Stats()
	if st.AttestFailures != 1 {
		t.Errorf("attest_failures = %d, want 1", st.AttestFailures)
	}
	if p.Peek(compiler.ArchDVM, "app/Main") != nil {
		t.Error("unattested derived artifact was cached")
	}
}

// TestCompileDigestVotesMatchDerivation: a variant's compile-mode
// derivation equals the owner's derived artifact when both compilers
// agree, and a proxy refuses to derive for an architecture it does not
// compile.
func TestCompileDigestVotesMatchDerivation(t *testing.T) {
	p := aotProxy(t, origin(t), nil)
	if _, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "jvm", Class: "app/Main"}); err != nil {
		t.Fatalf("base request: %v", err)
	}
	base := p.Peek("jvm", "app/Main")
	if base == nil {
		t.Fatal("base artifact not cached")
	}
	res, err := p.Request(context.Background(), proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"})
	if err != nil {
		t.Fatalf("derive request: %v", err)
	}
	out, rejected, err := p.Derive(context.Background(), nil, compiler.ArchDVM, "app/Main", base.Data, proxy.SealCompile)
	if err != nil || rejected {
		t.Fatalf("Derive: rejected=%v err=%v", rejected, err)
	}
	if d, want := attest.Digest(out), attest.Digest(res.Data); d != want {
		t.Errorf("compile vote %.12s != served artifact digest %.12s", d, want)
	}
	if _, _, err := p.Derive(context.Background(), nil, "sparc", "app/Main", base.Data, proxy.SealCompile); err == nil {
		t.Error("Derive compiled for an architecture it does not compile")
	}
}

// TestAOTKeyHasOneByteForm: over a pipeline with no compile step there is
// nothing to derive, so AOTBaseArch is ignored. A (dvm, class) key then
// has the same bytes whether or not its base artifact was resident, and
// no compilation is counted.
func TestAOTKeyHasOneByteForm(t *testing.T) {
	newProxy := func() *proxy.Proxy {
		return proxy.New(origin(t), proxy.Config{
			Pipeline:     proxy.ServicePipeline(nil, false),
			CacheEnabled: true,
			AOTBaseArch:  "jvm",
		})
	}
	dvm := proxy.Lookup{Client: "c", Arch: compiler.ArchDVM, Class: "app/Main"}

	warm := newProxy()
	if _, err := warm.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "jvm", Class: "app/Main"}); err != nil {
		t.Fatal(err)
	}
	afterBase, err := warm.Request(context.Background(), dvm)
	if err != nil {
		t.Fatal(err)
	}
	cold := newProxy()
	withoutBase, err := cold.Request(context.Background(), dvm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(afterBase.Data, withoutBase.Data) {
		t.Errorf("(dvm, app/Main) has two byte forms: %d bytes with its base resident, %d without", len(afterBase.Data), len(withoutBase.Data))
	}
	for _, p := range []*proxy.Proxy{warm, cold} {
		if st := p.Stats(); st.CompileMisses != 0 || st.CompileHits != 0 {
			t.Errorf("compile misses/hits = %d/%d over a pipeline that never compiles, want 0/0", st.CompileMisses, st.CompileHits)
		}
	}
}
