package proxy

import (
	"bytes"
	"testing"
)

// White-box tests for the batch Warm ingestion path.

func warmEntry(class string, n int, reason string) *Artifact {
	return &Artifact{Arch: "x86", Class: class, Data: bytes.Repeat([]byte{'x'}, n), Source: reason}
}

func TestWarmBatchStoresAllReasons(t *testing.T) {
	p := lruProxy(0)
	stored := p.Warm([]*Artifact{
		warmEntry("app/R", 100, ReasonReplica),
		warmEntry("app/H", 100, ReasonHandoff),
	})
	if stored != 2 {
		t.Fatalf("stored = %d, want 2", stored)
	}
	for _, class := range []string{"app/R", "app/H"} {
		if Cached(p, "x86", class) == nil {
			t.Errorf("%s not cached", class)
		}
	}
	if got := p.m.Warmed.Load(); got != 2 {
		t.Errorf("warm_entries_total = %d, want 2", got)
	}
	if got := p.m.WarmedBytes.Load(); got != 200 {
		t.Errorf("warm_bytes_total = %d, want 200", got)
	}
}

func TestWarmDisabledCache(t *testing.T) {
	p := New(MapOrigin{}, Config{})
	if n := p.Warm([]*Artifact{warmEntry("app/A", 10, ReasonReplica)}); n != 0 {
		t.Fatalf("stored = %d on disabled cache", n)
	}
}
