package classfile

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dvm/internal/slab"
)

func TestPoolKeyDistinguishesFloatBitPatterns(t *testing.T) {
	p := NewConstPool()
	neg := p.AddFloat(float32(math.Copysign(0, -1)))
	pos := p.AddFloat(0)
	if neg == pos {
		t.Fatal("-0.0 and +0.0 interned to the same Float slot")
	}
	d1 := p.AddDouble(math.NaN())
	d2 := p.AddDouble(math.NaN())
	if d1 != d2 {
		t.Fatal("identical NaN bit patterns interned to different Double slots")
	}
}

func TestReleaseRecyclesScratchSafely(t *testing.T) {
	cf := buildScratchClass(t)
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Parse, capture strings that outlive the release, then recycle.
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	name, err := parsed.Pool.ClassName(parsed.ThisClass)
	if err != nil {
		t.Fatal(err)
	}
	parsed.Release()
	if parsed.Pool != nil {
		t.Fatal("Release left cf.Pool set")
	}
	parsed.Release() // double release is a no-op

	// The retained string is still intact after the scratch is reused.
	for i := 0; i < 8; i++ {
		again, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("round-trip through recycled scratch diverged on iteration %d", i)
		}
		again.Release()
	}
	if name != "scratch/Demo" {
		t.Fatalf("retained string corrupted after recycle: %q", name)
	}
}

func buildScratchClass(t *testing.T) *ClassFile {
	t.Helper()
	pool := NewConstPool()
	cf := &ClassFile{
		MinorVersion: 3, MajorVersion: 45,
		Pool:        pool,
		AccessFlags: AccPublic | AccSuper,
	}
	cf.ThisClass = pool.AddClass("scratch/Demo")
	cf.SuperClass = pool.AddClass("java/lang/Object")
	pool.AddString(strings.Repeat("payload ", 16))
	pool.AddLong(1 << 40)
	pool.AddDouble(3.14)
	m := &Member{
		AccessFlags:     AccPublic | AccStatic,
		NameIndex:       pool.AddUtf8("run"),
		DescriptorIndex: pool.AddUtf8("(I)I"),
	}
	if err := cf.SetCode(m, &Code{MaxStack: 2, MaxLocals: 2, Bytecode: []byte{0x1a, 0xac}}); err != nil {
		t.Fatal(err)
	}
	cf.Methods = append(cf.Methods, m)
	return cf
}

// refClass builds a two-constant-deep class whose first member reference
// is owner.name, at the same pool index whatever the names.
func refClass(t *testing.T, owner, name string) ([]byte, uint16) {
	t.Helper()
	cf := buildScratchClass(t)
	ref := cf.Pool.AddMethodref(owner, name, "()V")
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data, ref
}

// TestReleaseClearsMemoAndIndex: a class parsed into recycled scratch
// must see nothing the previous class resolved or interned — not its
// member references, not its strings, not its overflow.
func TestReleaseClearsMemoAndIndex(t *testing.T) {
	dataA, ref := refClass(t, "first/Owner", "alpha")
	dataB, refB := refClass(t, "second/Owner", "beta")
	if ref != refB {
		t.Fatalf("fixture: the reference sits at %d in one class and %d in the other", ref, refB)
	}

	a, err := Parse(dataA)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := a.Pool.Ref(ref); err != nil || r.Class != "first/Owner" || r.Name != "alpha" {
		t.Fatalf("Ref = %v, %v", r, err)
	}
	a.Pool.SetDescriptor(a.Pool.entries[a.Pool.entries[ref].ref2].ref2, Descriptor{Parsed: "a's", Slots: 1})
	a.Pool.AddMethodref("dvm/Hook", "only", "()V") // fills the index and the recent-reference memo
	a.Pool.err = errPoolOverflow
	scratch := a.Pool
	a.Release()

	if len(scratch.entries)+len(scratch.strs)+len(scratch.refs)+len(scratch.index) != 0 || scratch.err != nil {
		t.Errorf("released pool is not empty: %d entries, %d strings, %d refs, %d index slots, err %v",
			len(scratch.entries), len(scratch.strs), len(scratch.refs), len(scratch.index), scratch.err)
	}
	for _, u := range scratch.strs[:cap(scratch.strs)] {
		if u.raw != nil || u.str != "" || u.desc != (Descriptor{}) {
			t.Fatal("released pool still references a string of the previous class")
		}
	}
	for _, r := range scratch.refs[:cap(scratch.refs)] {
		if r != (refMemo{}) {
			t.Fatal("released pool still holds a resolved reference of the previous class")
		}
	}
	if scratch.recent != [len(scratch.recent)]recentRef{} {
		t.Error("released pool still remembers a reference the previous class interned")
	}

	// Whatever scratch the next parse draws, it answers for its own class.
	for i := 0; i < 4; i++ {
		b, err := Parse(dataB)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := b.Pool.Ref(ref); err != nil || r.Class != "second/Owner" || r.Name != "beta" {
			t.Fatalf("Ref through recycled scratch = %v, %v; want second/Owner.beta", r, err)
		}
		if d := b.Pool.Descriptor(b.Pool.entries[b.Pool.entries[ref].ref2].ref2); d != (Descriptor{}) {
			t.Fatalf("recycled scratch carries the previous class's parsed descriptor %v", d)
		}
		size := b.Pool.Size()
		if idx := b.Pool.AddUtf8("alpha"); int(idx) != size {
			t.Fatalf(`AddUtf8("alpha") = %d in a class that never held it (pool size %d)`, idx, size)
		}
		if idx := b.Pool.AddMethodref("dvm/Hook", "only", "()V"); int(idx) < size || b.Pool.Err() != nil {
			t.Fatalf("AddMethodref of the previous class's hook = %d (pool size %d, err %v)", idx, size, b.Pool.Err())
		}
		b.Release()
	}
}

// TestStoredEntryIsCompact pins the pool's per-constant footprint.
func TestStoredEntryIsCompact(t *testing.T) {
	if StoredEntrySize > 32 {
		t.Errorf("the pool stores %d bytes per constant, want <= 32", StoredEntrySize)
	}
}

// TestInterningHitsDoNotAllocate: asking again for a constant the pool
// holds costs no allocation, by any Add*.
func TestInterningHitsDoNotAllocate(t *testing.T) {
	cf := buildScratchClass(t)
	p := cf.Pool
	want := p.AddMethodref("dvm/Audit", "enter", "(Ljava/lang/String;Ljava/lang/String;)V")
	other := p.AddFieldref("scratch/Demo", "flag", "Z")
	payload := strings.Repeat("payload ", 16) // a String the fixture holds
	if n := testing.AllocsPerRun(100, func() {
		if p.AddMethodref("dvm/Audit", "enter", "(Ljava/lang/String;Ljava/lang/String;)V") != want ||
			p.AddFieldref("scratch/Demo", "flag", "Z") != other ||
			p.AddString(payload) == 0 || p.AddLong(1<<40) == 0 {
			t.Fatal("an interning hit returned a different index")
		}
	}); n != 0 {
		t.Errorf("interning hits allocate %.0f times per round, want 0", n)
	}
}

// TestPoolOverflowIsSticky: the bound is the format's (65535 slots, index
// 65534 the last), an Add* past it returns 0 and every one after it does
// too, and Encode refuses the pool.
func TestPoolOverflowIsSticky(t *testing.T) {
	cf := buildScratchClass(t)
	p := cf.Pool
	for v := int32(0); p.Size() < MaxPoolSize-1; v++ {
		p.AddInteger(v)
	}
	if p.AddLong(-1) != 0 || p.Err() == nil {
		t.Fatal("a two-slot constant was added with one slot left")
	}
	p.err = nil
	if idx := p.AddUtf8("last"); idx != MaxPoolSize-1 || p.Err() != nil {
		t.Fatalf("the last slot: AddUtf8 = %d, err %v; want index %d", idx, p.Err(), MaxPoolSize-1)
	}
	if _, err := cf.Encode(); err != nil {
		t.Fatalf("a full pool does not encode: %v", err)
	}
	if p.AddUtf8("last") != MaxPoolSize-1 {
		t.Error("a hit on a full pool did not return the held constant")
	}
	if p.AddUtf8("one too many") != 0 || p.Err() == nil {
		t.Fatal("a constant was added to a full pool")
	}
	if p.AddUtf8("last") != 0 || p.AddMethodref("a/B", "c", "()V") != 0 {
		t.Error("an Add* returned an index after the pool overflowed")
	}
	if _, err := cf.Encode(); err == nil || err.Error() != "classfile: constant pool overflow" {
		t.Errorf("Encode of an overflowed pool: %v", err)
	}
}

// storeClass is buildScratchClass with an interface, a field and a
// class-level attribute, so that every table of the store is in use.
func storeClass(t *testing.T) []byte {
	t.Helper()
	cf := buildScratchClass(t)
	cf.Interfaces = append(cf.Interfaces, cf.Pool.AddClass("scratch/Iface"))
	cf.AddField(AccPrivate, "count", "I")
	cf.AddAttribute("SourceFile", []byte{0, byte(cf.Pool.AddUtf8("Demo.java"))})
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReleaseEndsTheStore: a class's members, attribute lists and
// interface list are its store's, and so are the ones a filter adds;
// Release recycles them with the pool. With the poison hook on, a *Member
// or *Attribute held past Release reads as values no parser produces —
// an index no pool can hold, a payload no class carried — and the lists
// that held them are gone from the ClassFile.
func TestReleaseEndsTheStore(t *testing.T) {
	defer slab.PoisonOnReset(slab.PoisonOnReset(true))
	cf, err := Parse(storeClass(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Interfaces) != 1 || len(cf.Fields) != 1 || len(cf.Methods) != 1 || len(cf.Attributes) != 1 {
		t.Fatalf("fixture: %d interfaces, %d fields, %d methods, %d attributes", len(cf.Interfaces), len(cf.Fields), len(cf.Methods), len(cf.Attributes))
	}
	added := cf.AddField(AccStatic, "added", "Z")
	cf.AddAttribute("Extra", []byte{1, 2, 3})
	members := []*Member{cf.Fields[0], cf.Methods[0], added}
	attrs := []*Attribute{cf.Methods[0].Attributes[0], cf.Attributes[0], cf.Attributes[1]}
	ifaces := cf.Interfaces
	cf.Release()

	for i, m := range members {
		if m.AccessFlags != poisonIndex || m.NameIndex != poisonIndex || m.DescriptorIndex != poisonIndex ||
			m.Attributes != nil || m.owner != nil || m.spanStart != -1 || m.decoded != nil {
			t.Errorf("member %d held past Release reads %+v", i, *m)
		}
	}
	for i, a := range attrs {
		if a.NameIndex != poisonIndex || string(a.Info) != poisonInfo {
			t.Errorf("attribute %d held past Release reads index %d, payload %q", i, a.NameIndex, a.Info)
		}
	}
	if ifaces[0] != poisonIndex {
		t.Errorf("interface list held past Release reads %v", ifaces)
	}
	if cf.Fields != nil || cf.Methods != nil || cf.Attributes != nil || cf.Interfaces != nil {
		t.Error("Release left the class's tables on the ClassFile")
	}
}

// TestStoreRetentionIsBounded: a class with more members and attributes
// than a recycled pool keeps does not stay pinned in poolScratch, and an
// ordinary class's storage is kept warm.
func TestStoreRetentionIsBounded(t *testing.T) {
	cf := buildScratchClass(t)
	for i := 0; i < 3*retainMembers; i++ {
		cf.AddField(AccStatic, "f"+strconv.Itoa(i), "I")
		cf.AddAttribute("Extra", nil)
	}
	big, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		warm bool
	}{{"outsized class", big, false}, {"ordinary class", storeClass(t), true}} {
		cf, err := Parse(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		pool := cf.Pool
		during, _ := pool.Retained()
		cf.Release()
		held, bound := pool.Retained()
		t.Logf("%s: %d bytes in use, %d kept after Release (bound %d)", tc.name, during, held, bound)
		if held > bound {
			t.Errorf("%s: the pool keeps %d bytes after Release, bound %d", tc.name, held, bound)
		}
		if tc.warm && pool.store.members.Cap() == 0 {
			t.Errorf("%s: its members' storage was dropped at Release", tc.name)
		}
		if !tc.warm && pool.store.members.Cap() != 0 {
			t.Errorf("%s: a chunk of %d members survived Release", tc.name, pool.store.members.Cap())
		}
	}
}

// TestUnreleasedParseStaysSmall: a class that is parsed and never
// released (a client's) keeps the chunks its store took, so a cold parse
// must not take much more than the class's tables need: a 338-byte
// one-method class takes under 6 KB from a cold pool (4.7 KB; with a first
// chunk of 64 elements it took 11.1 KB).
func TestUnreleasedParseStaysSmall(t *testing.T) {
	data := storeClass(t)
	var least uint64
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(data) // never released: every parse takes a cold pool
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if cost := after.TotalAlloc - before.TotalAlloc; try == 0 || cost < least {
			least = cost
		}
	}
	t.Logf("%d-byte class: a cold parse allocates %d bytes", len(data), least)
	if least > 6<<10 {
		t.Errorf("a cold parse of a %d-byte class allocates %d bytes, want <= 6 KB", len(data), least)
	}
}
