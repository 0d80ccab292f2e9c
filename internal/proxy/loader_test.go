package proxy

// The client loader reads a class into a buffer sized from the length
// the proxy declared. These tests pin what that must never become: a
// body-sized allocation for a length over the bound, a truncated class
// handed to DefineClass, a refusal of a legitimately chunked response, or
// a quiet return to regrowing the buffer.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvm/internal/jvm"
	"dvm/internal/resilience"
)

// rawResponder answers every request by hijacking the connection and
// writing head + body verbatim, then closing: a proxy that declares one
// length and sends another.
func rawResponder(t *testing.T, respond func(attempt int64) (declared int, body []byte)) *httptest.Server {
	t.Helper()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		declared, body := respond(attempts.Add(1))
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/java-vm\r\nContent-Length: %d\r\n\r\n", declared)
		_, _ = buf.Write(body)
		_ = buf.Flush()
	}))
	t.Cleanup(srv.Close)
	return srv
}

// allocatedBy reports the bytes allocated while f runs (whole process:
// the loopback server's side of the exchange is in it).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestLoaderRefusesOversizeLengthBeforeAllocating(t *testing.T) {
	srv := rawResponder(t, func(int64) (int, []byte) { return maxClassBytes + 1, []byte("only a few bytes follow") })
	loader := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Policy: resilience.Policy{Retries: 3}})
	var err error
	cost := allocatedBy(func() { _, err = loader.Load("app/Huge") })
	if !errors.Is(err, ErrBodyTooLarge) || !resilience.IsPermanent(err) {
		t.Fatalf("oversize Content-Length: err = %v, want permanent ErrBodyTooLarge", err)
	}
	if cost > 256<<10 {
		t.Errorf("refusing a %d-byte declared length allocated %d bytes", maxClassBytes+1, cost)
	}
}

func TestLoaderShortBodyIsRetriedNeverTruncated(t *testing.T) {
	class := bytes.Repeat([]byte("classbytes"), 300)
	srv := rawResponder(t, func(attempt int64) (int, []byte) {
		if attempt == 1 {
			return len(class), class[:len(class)/3] // connection dies mid-body
		}
		return len(class), class
	})
	// No retry budget: the short body is an error, not a short class.
	if data, err := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{}).Load("app/Cut"); err == nil {
		t.Fatalf("short body loaded as a %d-byte class (declared %d)", len(data), len(class))
	} else if resilience.IsPermanent(err) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want retryable io.ErrUnexpectedEOF", err)
	}
	// With one retry the second, whole answer is what the caller gets.
	srv = rawResponder(t, func(attempt int64) (int, []byte) {
		if attempt == 1 {
			return len(class), class[:len(class)/3]
		}
		return len(class), class
	})
	data, err := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Policy: resilience.Policy{Retries: 1}}).Load("app/Cut")
	if err != nil || !bytes.Equal(data, class) {
		t.Fatalf("retry after a short body: %d bytes, err %v; want the whole class", len(data), err)
	}
}

func TestLoaderChunkedResponseStillLoads(t *testing.T) {
	class := bytes.Repeat([]byte{0xCA, 0xFE}, 5000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A flush before the last write makes net/http send the body
		// chunked, with no Content-Length.
		_, _ = w.Write(class[:100])
		w.(http.Flusher).Flush()
		_, _ = w.Write(class[100:])
	}))
	defer srv.Close()
	data, err := HTTPLoader(srv.URL, "c", "dvm").Load("app/Chunked")
	if err != nil || !bytes.Equal(data, class) {
		t.Fatalf("chunked response: %d bytes, err %v; want %d bytes", len(data), err, len(class))
	}
}

// The loader calls its transport directly, with no http.Client between:
// the next three tests pin what that wrapper used to decide.

// TestLoaderFollowsNoRedirect: the class protocol has no redirects, so a
// 302 is an answer like any other non-200 — the load fails naming the
// status, and the server the Location points at is never contacted.
func TestLoaderFollowsNoRedirect(t *testing.T) {
	var elsewhere atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
		_, _ = w.Write([]byte("not the proxy's class"))
	}))
	defer target.Close()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, target.URL+r.URL.Path, http.StatusFound)
	}))
	defer front.Close()
	data, err := HTTPLoader(front.URL, "c", "dvm").Load("app/Moved")
	if err == nil || !strings.Contains(err.Error(), "302") {
		t.Fatalf("redirected load: %d bytes, err %v; want an error naming the 302", len(data), err)
	}
	if got := elsewhere.Load(); got != 0 {
		t.Errorf("the redirect target was contacted %d times, want 0", got)
	}
}

// TestLoaderDeadlineBoundsBodyRead: a proxy that sends its headers and
// half the class, then stalls, is cut off by the hop's per-attempt
// deadline alone, and the failure is retryable.
func TestLoaderDeadlineBoundsBodyRead(t *testing.T) {
	class := bytes.Repeat([]byte("classbytes"), 300)
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(class)))
		_, _ = w.Write(class[:len(class)/2])
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-stall:
		}
	}))
	defer srv.Close()
	defer close(stall)
	start := time.Now()
	data, err := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Policy: resilience.Policy{Timeout: 200 * time.Millisecond}}).Load("app/Stalled")
	took := time.Since(start)
	if err == nil {
		t.Fatalf("stalled body loaded as a %d-byte class", len(data))
	}
	if resilience.IsPermanent(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled body: err = %v, want a retryable context.DeadlineExceeded", err)
	}
	if took > time.Second {
		t.Errorf("stalled body held the load %v, want about the 200ms deadline", took)
	}
}

// TestLoaderConcurrentLoadsShareHeader: one loader's requests share one
// header map, so concurrent loads must only ever read it (the race
// detector checks that), and every request still carries the client's
// handshake headers.
func TestLoaderConcurrentLoadsShareHeader(t *testing.T) {
	class := bytes.Repeat([]byte{0xCA, 0xFE}, 100)
	var bad atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-DVM-Client") != "c7" || r.Header.Get("X-DVM-Arch") != "dvm" {
			bad.Add(1)
		}
		_, _ = w.Write(class)
	}))
	defer srv.Close()
	loader := HTTPLoader(srv.URL, "c7", "dvm")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if data, err := loader.Load(fmt.Sprintf("app/G%dC%d", g, i)); err != nil || !bytes.Equal(data, class) {
					t.Errorf("concurrent load: %d bytes, err %v", len(data), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d requests arrived without the handshake headers", n)
	}
}

// TestLoaderAllocatesOneClassPerLoad pins the exact-size read through
// the real front end: a warm load of an N-byte class costs the process
// less than N + 7 KB (client and loopback server together; about
// N + 6.0 KB measured, N + 6.4 KB while the transport asked for gzip and
// N + 7.7 KB while an http.Client wrapped it), where regrowing the read
// buffer cost about 3.5 N + 10 KB.
// Under -race it only logs (poolsAreLossy).
func TestLoaderAllocatesOneClassPerLoad(t *testing.T) {
	const size = 48 << 10
	class := bytes.Repeat([]byte{0xCA}, size)
	p := New(MapOrigin{}, Config{CacheEnabled: true})
	if p.Warm([]*Artifact{{Arch: "dvm", Class: "app/Big", Data: class, Source: ReasonReplica}}) != 1 {
		t.Fatal("could not make the class resident")
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	loader := HTTPLoader(srv.URL, "c", "dvm")
	load := func() {
		if data, err := loader.Load("app/Big"); err != nil || len(data) != size {
			t.Fatalf("load: %d bytes, err %v", len(data), err)
		}
	}
	load() // connection, cache entry, lazily built tables
	load()
	const loads = 50
	least := ^uint64(0)
	for round := 0; round < 5; round++ { // least of several: other goroutines may allocate in the window
		if cost := allocatedBy(func() {
			for i := 0; i < loads; i++ {
				load()
			}
		}) / loads; cost < least {
			least = cost
		}
	}
	if limit := uint64(size + 7<<10); least >= limit && !poolsAreLossy() {
		t.Errorf("one %d-byte load allocates %d bytes, want < %d (one class-sized buffer plus the hop)", size, least, limit)
	}
	t.Logf("%d-byte class: %d bytes allocated per load (%d beyond the class)", size, least, int64(least)-size)
}

// TestLoaderAsksForNoGzip: the proxy never compresses a class, so the
// loader's request reaches the proxy's handler asking for the identity
// encoding, not gzip, and the class still arrives byte for byte.
func TestLoaderAsksForNoGzip(t *testing.T) {
	class := bytes.Repeat([]byte("compressible "), 1<<10)
	p := New(MapOrigin{}, Config{CacheEnabled: true})
	if p.Warm([]*Artifact{{Arch: "dvm", Class: "app/Text", Data: class, Source: ReasonReplica}}) != 1 {
		t.Fatal("could not make the class resident")
	}
	var mu sync.Mutex
	var asked [][]string
	h := p.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		asked = append(asked, r.Header.Values("Accept-Encoding"))
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	for _, loader := range []jvm.ClassLoader{HTTPLoader(srv.URL, "c", "dvm"), HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Policy: resilience.Policy{Retries: 1}})} {
		data, err := loader.Load("app/Text")
		if err != nil || !bytes.Equal(data, class) {
			t.Fatalf("load: %d bytes (want %d), err %v", len(data), len(class), err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 2 {
		t.Fatalf("the handler saw %d requests, want 2", len(asked))
	}
	for _, v := range asked {
		if len(v) != 1 || v[0] != "identity" {
			t.Errorf("the loader asked for Accept-Encoding %q, want only identity", v)
		}
	}
}

// poolsAreLossy reports whether the test binary was built with -race.
// Under the race detector sync.Pool drops a quarter of what it is given on
// purpose, so net/http's pooled readers and writers do not reach a steady
// state and an allocation budget measures the detector, not the code; the
// test that holds one still runs there, for the detector's sake, and only
// logs.
func poolsAreLossy() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

func TestReadSized(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16*16) // 3.2 MB: several chunks
	for _, tc := range []struct {
		name     string
		body     []byte
		declared int64
		max      int
		wantErr  error
	}{
		{"exact", data[:5000], 5000, 1 << 20, nil},
		{"empty", nil, 0, 1 << 20, nil},
		{"several chunks", data, int64(len(data)), 16 << 20, nil},
		{"declared over max", data[:10], 1 << 30, 1 << 20, ErrBodyTooLarge},
		{"short", data[:4000], 5000, 1 << 20, io.ErrUnexpectedEOF},
		{"nothing at all", nil, 5000, 1 << 20, io.ErrUnexpectedEOF},
		{"undeclared", data[:5000], -1, 1 << 20, nil},
		{"undeclared over max", data[:5000], -1, 4999, ErrBodyTooLarge},
	} {
		got, err := ReadSizedInto(nil, bytes.NewReader(tc.body), tc.declared, tc.max)
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			continue
		}
		if tc.wantErr != nil {
			if got != nil {
				t.Errorf("%s: returned %d bytes alongside the error", tc.name, len(got))
			}
			continue
		}
		if !bytes.Equal(got, tc.body) {
			t.Errorf("%s: read %d bytes, want %d", tc.name, len(got), len(tc.body))
		}
		if tc.declared >= 0 && cap(got) != len(got) {
			t.Errorf("%s: cap %d for %d bytes, want exact", tc.name, cap(got), len(got))
		}
	}
	// A sender that declares the maximum and stalls costs one chunk.
	cost := allocatedBy(func() { _, _ = ReadSizedInto(nil, bytes.NewReader(data[:10]), 48<<20, 48<<20) })
	if cost > 2*sizedReadChunk {
		t.Errorf("a 48 MiB declaration backed by 10 bytes allocated %d bytes", cost)
	}
}
