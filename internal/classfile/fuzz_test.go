package classfile_test

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"dvm/internal/classfile"
	"dvm/internal/workload"
)

// parseAllocLimit bounds what parsing n bytes may allocate. The widest
// amplification is a pool of empty Utf8 constants: 3 bytes on disk, a
// 16-byte entry and a 64-byte string record in memory, both sized once
// from the declared count (itself capped by the bytes that remain). A
// member is 8 bytes on disk for an 88-byte record and a pointer, an
// attribute 6 bytes for 32 and a pointer in arenas that double as they
// grow. The constant covers the ClassFile, the reader and the error.
func parseAllocLimit(n int) uint64 { return uint64(40*n) + 4096 }

// allocated reports the bytes and objects fn allocates; a reading over
// limit bytes is retaken, because another goroutine (the fuzz worker's
// plumbing) can allocate inside the window and a parser that really
// over-allocates does so every time.
func allocated(limit uint64, fn func()) (bytes, objects uint64) {
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		b, o := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if try == 0 || b < bytes {
			bytes, objects = b, o
		}
		if bytes <= limit {
			break
		}
	}
	return bytes, objects
}

// Which accessors answered without error for one constant, as bits in the
// order checkParse calls them.
const (
	okEntry = 1 << iota
	okUtf8
	okClassName
	okNameAndType
	okRef
	okStringValue
)

// checkParse is the fuzz property. Arbitrary bytes never panic Parse and
// never make it allocate beyond parseAllocLimit. For an accepted class,
// every pool accessor at every index — including 0 and one past the end —
// answers the same on a second call, without allocating when it answers
// at all; Ref is exactly what the Entry views compose to; and Encode
// reproduces the input by the splice path and by the canonical one, before
// and after everything was touched, and reproduces itself from a reparse.
func checkParse(t *testing.T, data []byte) {
	var cf *classfile.ClassFile
	var err error
	limit := parseAllocLimit(len(data))
	if cost, _ := allocated(limit, func() { cf, err = classfile.Parse(data) }); cost > limit {
		t.Errorf("Parse allocated %d bytes for %d bytes of input (limit %d)", cost, len(data), limit)
	}
	if _, err2 := classfile.Parse(data); (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
		t.Errorf("Parse is not deterministic: %v, then %v", err, err2)
	}
	if err != nil {
		return
	}
	defer cf.Release()
	for _, enc := range []func() ([]byte, error){cf.Encode, cf.EncodeFull} {
		if out, err := enc(); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("untouched re-encode differs from the input (%v)", err)
		}
	}

	pool := cf.Pool
	n := pool.Size() + 1
	answered := make([]uint8, n)
	sameErr := func(a, b error) bool { return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error()) }
	for i := 0; i < n; i++ {
		idx := uint16(i)
		e, eErr := pool.Entry(idx)
		if e2, err := pool.Entry(idx); e2 != e || !sameErr(eErr, err) {
			t.Fatalf("Entry(%d) changed between calls", i)
		}
		if (eErr == nil) != pool.Valid(idx) || pool.Tag(idx) != e.Tag {
			t.Fatalf("Entry(%d), Valid and Tag disagree", i)
		}
		s, sErr := pool.Utf8(idx)
		if s2, err := pool.Utf8(idx); s2 != s || !sameErr(sErr, err) {
			t.Fatalf("Utf8(%d) changed between calls", i)
		}
		if sErr == nil && (e.Tag != classfile.TagUtf8 || e.Str != s) {
			t.Fatalf("Utf8(%d) = %q, Entry views %s %q", i, s, e.Tag, e.Str)
		}
		cn, cErr := pool.ClassName(idx)
		if cn2, err := pool.ClassName(idx); cn2 != cn || !sameErr(cErr, err) {
			t.Fatalf("ClassName(%d) changed between calls", i)
		}
		name, desc, nErr := pool.NameAndType(idx)
		if n2, d2, err := pool.NameAndType(idx); n2 != name || d2 != desc || !sameErr(nErr, err) {
			t.Fatalf("NameAndType(%d) changed between calls", i)
		}
		sv, vErr := pool.StringValue(idx)
		if sv2, err := pool.StringValue(idx); sv2 != sv || !sameErr(vErr, err) {
			t.Fatalf("StringValue(%d) changed between calls", i)
		}
		ref, rErr := pool.Ref(idx)
		if ref2, err := pool.Ref(idx); ref2 != ref || !sameErr(rErr, err) {
			t.Fatalf("Ref(%d) changed between calls", i)
		}
		// Ref against the composition of the views it stands for.
		var want classfile.MemberRef
		composes := false
		switch e.Tag {
		case classfile.TagFieldref, classfile.TagMethodref, classfile.TagInterfaceMethodref:
			c, cerr := pool.ClassName(e.Ref1)
			nn, dd, nerr := pool.NameAndType(e.Ref2)
			want, composes = classfile.MemberRef{Class: c, Name: nn, Desc: dd}, cerr == nil && nerr == nil
		}
		if (rErr == nil) != composes || (composes && ref != want) {
			t.Fatalf("Ref(%d) = %v (%v), the Entry views compose to %v (ok=%v)", i, ref, rErr, want, composes)
		}
		if d, err := pool.RefDescriptor(idx); (err == nil) != (rErr == nil) {
			t.Fatalf("RefDescriptor(%d) and Ref disagree on validity", i)
		} else if err == nil {
			if ds, err := pool.Utf8(d); err != nil || ds != ref.Desc {
				t.Fatalf("RefDescriptor(%d) names constant %d = %q, Ref's descriptor is %q", i, d, ds, ref.Desc)
			}
		}
		for bit, err := range []error{eErr, sErr, cErr, nErr, rErr, vErr} {
			if err == nil {
				answered[i] |= 1 << bit
			}
		}
	}

	// Everything is resolved now: whatever answered answers again from
	// what the pool remembers, allocating nothing.
	if _, objects := allocated(0, func() {
		for i := 0; i < n; i++ {
			idx, ok := uint16(i), answered[i]
			pool.Tag(idx)
			if ok&okEntry != 0 {
				pool.Entry(idx)
			}
			if ok&okUtf8 != 0 {
				pool.Utf8(idx)
			}
			if ok&okClassName != 0 {
				pool.ClassName(idx)
			}
			if ok&okNameAndType != 0 {
				pool.NameAndType(idx)
			}
			if ok&okRef != 0 {
				pool.Ref(idx)
			}
			if ok&okStringValue != 0 {
				pool.StringValue(idx)
			}
		}
	}); objects != 0 {
		t.Errorf("a second pass over %d resolved constants allocated %d objects", n, objects)
	}

	splice, err := cf.Encode()
	if err != nil || !bytes.Equal(splice, data) {
		t.Fatalf("re-encode after touching every constant differs from the input (%v)", err)
	}
	if full, err := cf.EncodeFull(); err != nil || !bytes.Equal(full, splice) {
		t.Fatalf("canonical encode differs from the splice encode (%v)", err)
	}
	back, err := classfile.Parse(splice)
	if err != nil {
		t.Fatalf("encoded class does not parse: %v", err)
	}
	defer back.Release()
	if again, err := back.Encode(); err != nil || !bytes.Equal(again, splice) {
		t.Fatalf("Encode is not a fixed point of Parse (%v)", err)
	}
}

// appClasses returns the classes of a generated application in name order.
func appClasses(tb testing.TB, spec workload.Spec) [][]byte {
	tb.Helper()
	app, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, 0, len(app.Classes))
	for name := range app.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = app.Classes[name]
	}
	return out
}

// FuzzParse feeds arbitrary bytes to Parse. Seeds: every class of two
// generated applications, and the first of them cut at each constant-pool
// entry boundary and one byte into each entry, where the pool's
// truncation errors live.
func FuzzParse(f *testing.F) {
	var first []byte
	for _, spec := range []workload.Spec{workload.Benchmarks()[0], workload.Applets()[5]} {
		for _, data := range appClasses(f, spec) {
			f.Add(data)
			if first == nil {
				first = data
			}
		}
	}
	cf, err := classfile.Parse(first)
	if err != nil {
		f.Fatal(err)
	}
	for _, off := range cf.PoolEntryOffsets() {
		f.Add(first[:off])
		f.Add(first[:off+1])
	}
	f.Fuzz(checkParse)
}

// TestParseNearFullPool holds a class whose pool is padded to the brim to
// the fuzz property. It is not a fuzz seed: the engine spends its whole
// budget minimizing every mutation of a 330 KB input (measured: no
// executions after the third second of a 20 s run).
func TestParseNearFullPool(t *testing.T) {
	class := appClasses(t, workload.Benchmarks()[0])[0]
	for _, count := range []int{65530, 65534, 65535} {
		padded, err := workload.PadPool(class, count)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		checkParse(t, padded)
	}
	if _, err := workload.PadPool(class, 65536); err == nil {
		t.Error("a pool was padded past the 65535 a u2 count can carry")
	}
}
