package proxy

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// White-box tests for the LRU result cache: eviction order, byte
// accounting under replacement, and oversized-entry handling.

func lruProxy(budget int) *Proxy {
	return New(MapOrigin{}, Config{CacheEnabled: true, CacheBudget: budget})
}

// storeMem puts data in the store under (x86, class) as a hot entry.
func (p *Proxy) storeMem(class string, data []byte) {
	p.store.put(&Artifact{Arch: "x86", Class: class, Data: data, Source: SourceOrigin})
}

// memGet is a memory hit on (x86, class).
func (p *Proxy) memGet(class string) (art *Artifact, fresh bool) {
	return p.store.get("x86\x00" + class)
}

// residentClasses lists the resident class names, sorted.
func residentClasses(p *Proxy) []string {
	var out []string
	for _, a := range p.CacheSnapshot(0, nil) {
		out = append(out, a.Class)
	}
	sort.Strings(out)
	return out
}

func TestLRUCache(t *testing.T) {
	pad := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	tests := []struct {
		name   string
		budget int
		run    func(p *Proxy)
		want   []string // surviving keys, sorted
		bytes  int
	}{
		{
			name:   "fifo order without access",
			budget: 200,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("b", pad(100))
				p.storeMem("c", pad(100)) // evicts a (oldest)
			},
			want:  []string{"b", "c"},
			bytes: 200,
		},
		{
			name:   "hit refreshes recency",
			budget: 200,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("b", pad(100))
				p.memGet("a")             // a now most recent
				p.storeMem("c", pad(100)) // evicts b, not a
			},
			want:  []string{"a", "c"},
			bytes: 200,
		},
		{
			name:   "re-store refreshes recency",
			budget: 200,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("b", pad(100))
				p.storeMem("a", pad(100)) // replacement also refreshes
				p.storeMem("c", pad(100)) // evicts b
			},
			want:  []string{"a", "c"},
			bytes: 200,
		},
		{
			name:   "replacement fixes byte accounting",
			budget: 300,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("a", pad(50)) // shrink: 100 -> 50
				p.storeMem("b", pad(100))
				p.storeMem("a", pad(150)) // grow: 50 -> 150
			},
			want:  []string{"a", "b"},
			bytes: 250,
		},
		{
			name:   "replacement growth can evict others",
			budget: 200,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("b", pad(100))
				p.storeMem("b", pad(150)) // grows over budget; evicts a
			},
			want:  []string{"b"},
			bytes: 150,
		},
		{
			name:   "oversized entry skipped, cache intact",
			budget: 200,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("big", pad(500)) // larger than the whole budget
			},
			want:  []string{"a"},
			bytes: 100,
		},
		{
			name:   "oversized replacement of resident key skipped",
			budget: 200,
			run: func(p *Proxy) {
				p.storeMem("a", pad(100))
				p.storeMem("a", pad(500)) // stale entry stays; oversized skipped
			},
			want:  []string{"a"},
			bytes: 100,
		},
		{
			name:   "unlimited budget never evicts",
			budget: 0,
			run: func(p *Proxy) {
				for i := 0; i < 10; i++ {
					p.storeMem(fmt.Sprintf("k%d", i), pad(100))
				}
			},
			want:  []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"},
			bytes: 1000,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := lruProxy(tc.budget)
			tc.run(p)
			got := residentClasses(p)
			if len(got) != len(tc.want) {
				t.Fatalf("entries = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("entries = %v, want %v", got, tc.want)
				}
			}
			if p.store.bytes != tc.bytes {
				t.Errorf("cache bytes = %d, want %d", p.store.bytes, tc.bytes)
			}
		})
	}
}

func TestLRUReplacementServesFreshBytes(t *testing.T) {
	p := lruProxy(0)
	p.storeMem("k", []byte("stale"))
	p.storeMem("k", []byte("fresh"))
	got, _ := p.memGet("k")
	if got == nil || string(got.Data) != "fresh" {
		t.Fatalf("memGet = %+v; want fresh entry", got)
	}
}

func TestDiskCacheConcurrentWritersSameKey(t *testing.T) {
	s := New(MapOrigin{}, Config{CacheEnabled: true, DiskCacheDir: t.TempDir()}).store
	const writers = 16
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 4096)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.save(&Artifact{Class: "k", Data: payload(i)})
			if art, _ := s.load("\x00k"); art != nil {
				// Any complete write is acceptable; torn bytes are not.
				data := art.Data
				if len(data) != 4096 || bytes.Count(data, data[:1]) != 4096 {
					t.Errorf("torn read: len=%d first=%q", len(data), data[0])
				}
			}
		}(i)
	}
	wg.Wait()
	art, _ := s.load("\x00k")
	if art == nil {
		t.Fatal("no entry after concurrent writes")
	}
	data := art.Data
	if len(data) != 4096 || bytes.Count(data, data[:1]) != 4096 {
		t.Fatalf("final entry torn: len=%d", len(data))
	}
}
