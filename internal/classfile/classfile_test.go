package classfile

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Dirty reports whether the member was marked modified since parsing.
func (m *Member) Dirty() bool { return m.dirty }

// buildMinimal constructs a small classfile by hand (no classgen, to keep
// the dependency direction test-clean) with one field, one method, and a
// few constants of every tag.
func buildMinimal(t *testing.T) *ClassFile {
	t.Helper()
	pool := NewConstPool()
	cf := &ClassFile{
		MinorVersion: 3,
		MajorVersion: 45,
		Pool:         pool,
		AccessFlags:  AccPublic | AccSuper,
	}
	cf.ThisClass = pool.AddClass("demo/Hello")
	cf.SuperClass = pool.AddClass("java/lang/Object")
	cf.Interfaces = append(cf.Interfaces, pool.AddClass("java/lang/Runnable"))
	pool.AddInteger(42)
	pool.AddFloat(3.5)
	pool.AddLong(1 << 40)
	pool.AddDouble(2.25)
	pool.AddString("hello world")
	pool.AddFieldref("demo/Hello", "count", "I")
	pool.AddMethodref("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	pool.AddInterfaceMethodref("java/lang/Runnable", "run", "()V")

	cf.Fields = append(cf.Fields, &Member{
		AccessFlags:     AccPrivate,
		NameIndex:       pool.AddUtf8("count"),
		DescriptorIndex: pool.AddUtf8("I"),
	})
	code := &Code{
		MaxStack:  1,
		MaxLocals: 1,
		Bytecode:  []byte{0xb1}, // return
		Handlers: []ExceptionHandler{
			{StartPC: 0, EndPC: 1, HandlerPC: 0, CatchType: pool.AddClass("java/lang/Exception")},
		},
	}
	m := &Member{
		AccessFlags:     AccPublic,
		NameIndex:       pool.AddUtf8("run"),
		DescriptorIndex: pool.AddUtf8("()V"),
	}
	if err := cf.SetCode(m, code); err != nil {
		t.Fatalf("SetCode: %v", err)
	}
	cf.Methods = append(cf.Methods, m)
	cf.AddAttribute(AttrSourceFile, []byte{0, 0})
	return cf
}

func TestEncodeParseRoundTrip(t *testing.T) {
	cf := buildMinimal(t)
	data, err := cf.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	data2, err := parsed.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip not byte-identical: %d vs %d bytes", len(data), len(data2))
	}
	if got := parsed.Name(); got != "demo/Hello" {
		t.Errorf("Name = %q, want demo/Hello", got)
	}
	if got := parsed.SuperName(); got != "java/lang/Object" {
		t.Errorf("SuperName = %q", got)
	}
	ifs := parsed.InterfaceNames()
	if len(ifs) != 1 || ifs[0] != "java/lang/Runnable" {
		t.Errorf("InterfaceNames = %v", ifs)
	}
	if parsed.FindMethod("run", "()V") == nil {
		t.Error("FindMethod(run) = nil")
	}
	if parsed.FindMethod("walk", "()V") != nil {
		t.Error("FindMethod(walk) should be nil")
	}
	if parsed.FindField("count", "I") == nil {
		t.Error("FindField(count) = nil")
	}
}

func TestParsedPoolInterningReusesEntries(t *testing.T) {
	cf := buildMinimal(t)
	data, err := cf.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	before := parsed.Pool.Size()
	// All of these already exist; interning must not grow the pool.
	parsed.Pool.AddClass("demo/Hello")
	parsed.Pool.AddUtf8("count")
	parsed.Pool.AddMethodref("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	parsed.Pool.AddInteger(42)
	parsed.Pool.AddLong(1 << 40)
	if parsed.Pool.Size() != before {
		t.Errorf("pool grew from %d to %d on re-interning", before, parsed.Pool.Size())
	}
	// A new entry must grow it.
	parsed.Pool.AddUtf8("definitely-new")
	if parsed.Pool.Size() != before+1 {
		t.Errorf("pool size = %d after new utf8, want %d", parsed.Pool.Size(), before+1)
	}
}

func TestCodeAttributeRoundTrip(t *testing.T) {
	cf := buildMinimal(t)
	m := cf.FindMethod("run", "()V")
	code, err := cf.CodeOf(m)
	if err != nil {
		t.Fatalf("CodeOf: %v", err)
	}
	if code == nil {
		t.Fatal("CodeOf = nil")
	}
	if code.MaxStack != 1 || code.MaxLocals != 1 {
		t.Errorf("MaxStack/MaxLocals = %d/%d", code.MaxStack, code.MaxLocals)
	}
	if len(code.Handlers) != 1 || code.Handlers[0].EndPC != 1 {
		t.Errorf("Handlers = %+v", code.Handlers)
	}
	// Mutate and re-install.
	code.MaxStack = 7
	if err := cf.SetCode(m, code); err != nil {
		t.Fatal(err)
	}
	again, err := cf.CodeOf(m)
	if err != nil {
		t.Fatal(err)
	}
	if again.MaxStack != 7 {
		t.Errorf("MaxStack after SetCode = %d, want 7", again.MaxStack)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	good, err := buildMinimal(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 0xDE
			return c
		}},
		{"truncated mid-pool", func(b []byte) []byte { return b[:12] }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 1, 2, 3) }},
		{"zero pool count", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8], c[9] = 0, 0
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.mutate(good)); err == nil {
				t.Errorf("Parse accepted %s input", tc.name)
			}
		})
	}
}

func TestParseRejectsBadConstantTag(t *testing.T) {
	// Hand-build: magic, versions, pool count 2, tag 99.
	raw := []byte{
		0xCA, 0xFE, 0xBA, 0xBE,
		0, 3, 0, 45,
		0, 2,
		99,
	}
	if _, err := Parse(raw); err == nil {
		t.Fatal("accepted unknown constant tag")
	}
}

func TestPoolAccessorTagChecks(t *testing.T) {
	p := NewConstPool()
	u := p.AddUtf8("x")
	cls := p.AddClass("a/B")
	if _, err := p.Utf8(cls); err == nil {
		t.Error("Utf8 on Class entry should fail")
	}
	if _, err := p.ClassName(u); err == nil {
		t.Error("ClassName on Utf8 entry should fail")
	}
	if _, err := p.Entry(0); err == nil {
		t.Error("Entry(0) should fail")
	}
	if _, err := p.Entry(9999); err == nil {
		t.Error("Entry(out of range) should fail")
	}
	l := p.AddLong(5)
	if p.Valid(l + 1) {
		t.Error("second slot of Long must be invalid")
	}
	ref := p.AddMethodref("a/B", "m", "()V")
	r, err := p.Ref(ref)
	if err != nil {
		t.Fatal(err)
	}
	if r.Class != "a/B" || r.Name != "m" || r.Desc != "()V" {
		t.Errorf("Ref = %+v", r)
	}
	if _, err := p.Ref(cls); err == nil {
		t.Error("Ref on Class entry should fail")
	}
}

func TestModifiedUTF8RoundTrip(t *testing.T) {
	cases := []string{
		"",
		"hello",
		"nul\x00inside",
		"café",
		"ࠀ three-byte",
		"emoji \U0001F600 pair",
		"日本語",
	}
	for _, s := range cases {
		enc := appendModifiedUTF8(nil, s)
		for _, b := range enc {
			if b == 0 {
				t.Errorf("%q: encoded form contains a zero byte", s)
			}
		}
		dec, ok := decodeModifiedUTF8(enc)
		if !ok || dec != s {
			t.Errorf("round trip of %q failed: got %q ok=%v", s, dec, ok)
		}
	}
}

func TestModifiedUTF8QuickRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc := appendModifiedUTF8(nil, s)
		dec, ok := decodeModifiedUTF8(enc)
		return ok && dec == s
	}
	// Strings generated by quick are valid UTF-8, which is what the
	// builder path feeds the encoder.
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeModifiedUTF8RejectsIllegalBytes(t *testing.T) {
	bad := [][]byte{
		{0x00},             // raw NUL
		{0xF0, 0x9F, 0x98}, // 4-byte UTF-8 lead is illegal in modified UTF-8
		{0xC0},             // truncated 2-byte
		{0xE0, 0x80},       // truncated 3-byte
		{0x80},             // stray continuation
	}
	for _, b := range bad {
		if _, ok := decodeModifiedUTF8(b); ok {
			t.Errorf("accepted illegal sequence % x", b)
		}
	}
}

// TestValidateAgreesWithDecode: the parse gate's validator accepts
// exactly what the decoder does, and calls plain ASCII exactly the inputs
// made of bytes 0x01–0x7F, whose bytes are then the decoded string's — at
// every length, so the eight-bytes-at-a-time fast path and its tail are
// both covered.
func TestValidateAgreesWithDecode(t *testing.T) {
	check := func(b []byte) bool {
		ok, ascii := validateModifiedUTF8(b)
		s, decodes := decodeModifiedUTF8(b)
		plain := true
		for _, c := range b {
			plain = plain && c != 0 && c < 0x80
		}
		return ok == decodes && ascii == plain && (!ascii || s == string(b))
	}
	for n := 0; n <= 40; n++ {
		plain := bytes.Repeat([]byte{'a'}, n)
		if !check(plain) {
			t.Fatalf("%d plain ASCII bytes: validator and decoder disagree", n)
		}
		for at := 0; at < n; at++ {
			for _, odd := range [][]byte{{0x00}, {0x80}, {0xC3, 0xA9}, {0xC0, 0x80}, {0xE2, 0x82, 0xAC}, {0xF0}} {
				b := append(append(append([]byte{}, plain[:at]...), odd...), plain[at+1:]...)
				if !check(b) {
					t.Fatalf("% x at byte %d of %d: validator and decoder disagree", odd, at, n)
				}
			}
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAttributeAddRemove(t *testing.T) {
	cf := buildMinimal(t)
	cf.AddAttribute("dvm.Test", []byte("payload"))
	if cf.FindAttr(cf.Attributes, "dvm.Test") == nil {
		t.Fatal("attribute not found after Add")
	}
	if !cf.RemoveAttribute("dvm.Test") {
		t.Fatal("RemoveAttribute returned false")
	}
	if cf.FindAttr(cf.Attributes, "dvm.Test") != nil {
		t.Fatal("attribute still present after Remove")
	}
	if cf.RemoveAttribute("dvm.Test") {
		t.Fatal("second RemoveAttribute returned true")
	}
}

func TestConstantValueDecode(t *testing.T) {
	cf := buildMinimal(t)
	idx := cf.Pool.AddInteger(7)
	a := &Attribute{NameIndex: cf.Pool.AddUtf8(AttrConstantValue), Info: []byte{byte(idx >> 8), byte(idx)}}
	got, err := ConstantValueIndex(a)
	if err != nil || got != idx {
		t.Errorf("ConstantValueIndex = %d, %v", got, err)
	}
	if _, err := ConstantValueIndex(&Attribute{Info: []byte{1}}); err == nil {
		t.Error("short ConstantValue accepted")
	}
}

func TestParseRejectsOversizeInput(t *testing.T) {
	big := make([]byte, MaxClassFileSize+1)
	if _, err := Parse(big); err == nil {
		t.Fatal("oversize classfile accepted")
	}
}

func TestDecodeCodeRejectsMalformed(t *testing.T) {
	cf := buildMinimal(t)
	m := cf.FindMethod("run", "()V")
	a := cf.FindAttr(m.Attributes, AttrCode)
	// Truncate the attribute payload.
	short := &Attribute{NameIndex: a.NameIndex, Info: a.Info[:5]}
	if _, err := DecodeCode(short); err == nil {
		t.Error("truncated Code attribute accepted")
	}
	// Trailing garbage.
	long := &Attribute{NameIndex: a.NameIndex, Info: append(append([]byte(nil), a.Info...), 0xFF)}
	if _, err := DecodeCode(long); err == nil {
		t.Error("over-long Code attribute accepted")
	}
}

// FindField returns the first field with the given name and descriptor,
// or nil if the class declares no such field.
func (cf *ClassFile) FindField(name, desc string) *Member {
	for _, f := range cf.Fields {
		if cf.MemberName(f) == name && cf.MemberDescriptor(f) == desc {
			return f
		}
	}
	return nil
}
