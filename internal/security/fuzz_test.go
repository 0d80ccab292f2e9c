package security

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// policyAllocLimit bounds what parsing an n-byte policy may allocate. The
// XML decoder's buffers and the Policy's map take a few kilobytes however
// short the input; past that, every element and attribute the decoder
// reports costs a bounded number of bytes per input byte.
func policyAllocLimit(n int) uint64 { return uint64(64*n) + 16<<10 }

// FuzzParsePolicy feeds arbitrary documents to ParsePolicy, the decoder a
// client or proxy runs on the policy a security server hands out. It never
// panics, allocates within policyAllocLimit, and a policy it accepts
// encodes to a document that parses back to the same policy. Seeds: the test policy cut at every
// byte, and hand-made documents — deep nesting, attribute floods,
// entities, duplicates and missing fields.
func FuzzParsePolicy(f *testing.F) {
	for i := 0; i <= len(testPolicyXML); i += 7 {
		f.Add([]byte(testPolicyXML[:i]))
	}
	f.Add([]byte(testPolicyXML))
	for _, s := range []string{
		strings.Repeat("<policy>", 512),
		"<policy>" + strings.Repeat(`<domain id="d"><grant permission="p"/></domain>`, 64) + "</policy>",
		`<policy><domain id="a" ` + strings.Repeat(`x="1" `, 256) + `/></policy>`,
		`<policy><operation permission="&lt;&amp;&#x41;" class="*" method="m"/></policy>`,
		`<policy><assign domain="nowhere" codebase="*"/></policy>`,
		`<policy><resource name="" sid=""/></policy>`,
		`<!DOCTYPE policy [<!ENTITY a "aaaaaaaa">]><policy>&a;&a;</policy>`,
		`<?xml version="1.0" encoding="utf-16"?><policy/>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *Policy
		var err error
		limit := policyAllocLimit(len(data))
		var least uint64
		for try := 0; try < 4; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err = ParsePolicy(data)
			runtime.ReadMemStats(&after)
			if cost := after.TotalAlloc - before.TotalAlloc; try == 0 || cost < least {
				least = cost
			}
			if least <= limit {
				break
			}
		}
		if least > limit {
			t.Errorf("ParsePolicy allocated %d bytes for a %d-byte document (limit %d)", least, len(data), limit)
		}
		if err != nil {
			if p != nil {
				t.Errorf("refused policy still returned %+v", p)
			}
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted policy does not encode: %v", err)
		}
		back, err := ParsePolicy(enc)
		if err != nil {
			t.Fatalf("accepted policy encodes to %q, which does not parse: %v", enc, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("accepted policy round-trips to %+v, want %+v", back, p)
		}
	})
}
