package proxy

// What a response owns: an artifact the store does not keep lives in a
// recycled buffer that goes back to the pool once the last waiter that
// received it has written it (Result.Release). These tests run with
// slab.PoisonOnReset on, so a buffer recycled too early reads poison.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/slab"
)

// poisoned turns on poisoning for the rest of the test.
func poisoned(t *testing.T) {
	was := slab.PoisonOnReset(true)
	t.Cleanup(func() { slab.PoisonOnReset(was) })
}

// bigClass is a valid classfile of about size bytes: one method that
// loads a string constant of that length.
func bigClass(t testing.TB, name string, size int) []byte {
	t.Helper()
	b := classgen.NewClass(name, "java/lang/Object")
	b.Method(classfile.AccPublic|classfile.AccStatic, "s", "()Ljava/lang/String;").
		LdcString(strings.Repeat("x", size)).AReturn()
	data, err := b.BuildBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// gatedOrigin holds every fetch until open is closed.
type gatedOrigin struct {
	Origin
	open chan struct{}
}

func (g gatedOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	select {
	case <-g.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Origin.Fetch(ctx, name)
}

// waitWaiters waits until want requests wait on p's flights.
func waitWaiters(t *testing.T, p *Proxy, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := p.Health().Gauges["flight_waiters"]; int(got) == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("flight_waiters = %v, want %d", got, want)
		}
	}
}

// reference is the pipeline's output for class, from a proxy of its own.
func reference(t *testing.T, origin Origin, class string) []byte {
	t.Helper()
	res, err := New(origin, Config{}).Request(context.Background(), Lookup{Arch: "dvm", Class: class})
	if err != nil {
		t.Fatal(err)
	}
	return res.Data
}

func TestPutBufferPoisons(t *testing.T) {
	poisoned(t)
	b := GetBuffer()
	*b = append((*b)[:0], "class bytes"...)
	data := *b
	PutBuffer(b)
	if want := bytes.Repeat([]byte{bufferPoison}, len(data)); !bytes.Equal(data, want) {
		t.Fatalf("a released buffer reads %q, want poison", data)
	}
}

// TestLastReleasePoolsTheOutput: three requests coalesce onto one miss of
// a proxy that caches nothing. Each holds the output until it releases
// it; the bytes stay intact while any holder remains, and the last
// release recycles them.
func TestLastReleasePoolsTheOutput(t *testing.T) {
	poisoned(t)
	origin := MapOrigin{"app/Out": bigClass(t, "app/Out", 4<<10)}
	want := reference(t, origin, "app/Out")
	gate := gatedOrigin{origin, make(chan struct{})}
	p := New(gate, Config{})
	const holders = 3
	results := make([]Result, holders)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if results[i], err = p.Request(context.Background(), Lookup{Client: fmt.Sprint(i), Arch: "dvm", Class: "app/Out"}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitWaiters(t, p, holders)
	close(gate.open)
	wg.Wait()
	data := results[0].Data
	for i := range results {
		if results[i].held == nil || !bytes.Equal(results[i].Data, want) {
			t.Fatalf("holder %d: held %v, bytes match %v", i, results[i].held != nil, bytes.Equal(results[i].Data, want))
		}
	}
	for i := 0; i < holders-1; i++ {
		results[i].Release()
		results[i].Release() // a second call is a no-op
		if !bytes.Equal(data, want) {
			t.Fatalf("after %d of %d releases the output is gone", i+1, holders)
		}
	}
	if results[0].Data != nil || results[0].Art != nil {
		t.Error("a released result still points at its bytes")
	}
	results[holders-1].Release()
	if bytes.Equal(data, want) {
		t.Error("the last release left the output in place: the buffer was not recycled")
	}
}

// TestLeaveAfterFinishGivesBackTheHold: a waiter that gives up after its
// flight finished was counted as a holder, and leaving gives its hold back.
func TestLeaveAfterFinishGivesBackTheHold(t *testing.T) {
	poisoned(t)
	p := New(MapOrigin{}, Config{})
	b := GetBuffer()
	*b = append((*b)[:0], "output"...)
	data := *b
	f := &flight{done: make(chan struct{}), cancel: func() {}, waiters: 2, finished: true, buf: b}
	f.holds.Store(2)
	p.leaveFlight("k", f)
	if string(data) != "output" {
		t.Fatal("one of two holders left and the output was recycled")
	}
	p.leaveFlight("k", f)
	if string(data) == "output" {
		t.Fatal("both holders left and the output was not recycled")
	}
}

// TestUncachedFlightOutlivesItsHTTPWaiters: several HTTP clients and one
// in-process Loader coalesce onto one miss of a proxy that caches
// nothing. Every client gets the pipeline's bytes, each front end
// releases its hold once written, and the Loader, which never releases,
// still holds the same bytes after all of them have: the buffer never
// went back to the pool.
func TestUncachedFlightOutlivesItsHTTPWaiters(t *testing.T) {
	poisoned(t)
	origin := MapOrigin{"app/Shared": bigClass(t, "app/Shared", 8<<10)}
	want := reference(t, origin, "app/Shared")
	gate := gatedOrigin{origin, make(chan struct{})}
	var mu sync.Mutex
	var audit []RequestRecord
	p := New(gate, Config{OnAudit: func(r RequestRecord) {
		mu.Lock()
		audit = append(audit, r)
		mu.Unlock()
	}})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const clients = 4
	got := make([][]byte, clients+1)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if got[i], err = HTTPLoader(srv.URL, fmt.Sprint("http", i), "dvm").Load("app/Shared"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if got[clients], err = p.Loader("inproc", "dvm").Load("app/Shared"); err != nil {
			t.Error(err)
		}
	}()
	waitWaiters(t, p, clients+1)
	close(gate.open)
	wg.Wait()
	srv.Close() // every handler, and so every release, has returned
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("waiter %d got %d bytes that differ from the pipeline's %d", i, len(b), len(want))
		}
	}
	if s := p.Stats(); s.OriginFetches != 1 || s.Coalesced != clients {
		t.Errorf("origin fetches %d, coalesced %d: want 1 flight shared by %d followers", s.OriginFetches, s.Coalesced, clients)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(audit) != clients+1 {
		t.Fatalf("%d audit records, want %d", len(audit), clients+1)
	}
	for _, r := range audit {
		if r.Bytes != len(want) || r.FetchError != "" {
			t.Errorf("audit record for %s: %d bytes, error %q", r.Client, r.Bytes, r.FetchError)
		}
	}
}

// TestUncachedMissKeepsNoOutput: a miss on a proxy that caches nothing,
// through the HTTP front end, allocates the client's copy of the class and
// the hop, and not the output it wrote: that goes back to the pool.
func TestUncachedMissKeepsNoOutput(t *testing.T) {
	const size = 48 << 10
	class := bigClass(t, "app/Big", size)
	p := New(MapOrigin{"app/Big": class}, Config{})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	loader := HTTPLoader(srv.URL, "c", "dvm")
	want := reference(t, MapOrigin{"app/Big": class}, "app/Big")
	load := func() {
		if data, err := loader.Load("app/Big"); err != nil || !bytes.Equal(data, want) {
			t.Fatalf("load: %d bytes, err %v", len(data), err)
		}
	}
	load() // connection, pools, lazily built tables
	load()
	const loads = 50
	least := ^uint64(0)
	for round := 0; round < 5; round++ {
		if cost := allocatedBy(func() {
			for i := 0; i < loads; i++ {
				load()
			}
		}) / loads; cost < least {
			least = cost
		}
	}
	if limit := uint64(len(class)*3/2 + 8<<10); least >= limit && !poolsAreLossy() {
		t.Errorf("an uncached miss of a %d-byte class allocates %d bytes, want < %d (the client's copy and the hop)", len(class), least, limit)
	}
	t.Logf("%d-byte class, uncached: %d bytes allocated per load (%d beyond the class)", len(class), least, int64(least)-int64(len(class)))
}
