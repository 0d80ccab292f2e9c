package proxy

// The client loader reads a class into a buffer sized from the length
// the proxy declared. These tests pin what that must never become: a
// body-sized allocation for a length over the bound, a truncated class
// handed to DefineClass, a refusal of a legitimately chunked response, or
// a quiet return to regrowing the buffer.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

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
	loader := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Retries: 3})
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
	data, err := HTTPLoaderWith(srv.URL, "c", "dvm", LoaderOptions{Retries: 1}).Load("app/Cut")
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

// TestLoaderAllocatesOneClassPerLoad pins the exact-size read through
// the real front end: a warm load of an N-byte class costs the process
// less than N + 10 KB (client and loopback server together), where
// regrowing the read buffer cost about 3.5 N + 10 KB.
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
	if limit := uint64(size + 10<<10); least >= limit {
		t.Errorf("one %d-byte load allocates %d bytes, want < %d (one class-sized buffer plus the hop)", size, least, limit)
	}
	t.Logf("%d-byte class: %d bytes allocated per load (%d beyond the class)", size, least, int64(least)-size)
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
		got, err := ReadSized(bytes.NewReader(tc.body), tc.declared, tc.max)
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
	cost := allocatedBy(func() { _, _ = ReadSized(bytes.NewReader(data[:10]), 48<<20, 48<<20) })
	if cost > 2*sizedReadChunk {
		t.Errorf("a 48 MiB declaration backed by 10 bytes allocated %d bytes", cost)
	}
}
