package proxy_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/verifier"
)

func TestReplicaGroupRoundRobin(t *testing.T) {
	org := origin(t)
	g, err := proxy.NewReplicaGroup(org, 3, func(i int) proxy.Config {
		return proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 {
		t.Fatalf("Size = %d", g.Size())
	}
	for i := 0; i < 9; i++ {
		if _, err := g.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin: every replica saw 3 requests.
	for i := 0; i < 3; i++ {
		if got := g.Replica(i).Stats().Requests; got != 3 {
			t.Errorf("replica %d requests = %d, want 3", i, got)
		}
	}
	if g.Stats().Requests != 9 {
		t.Errorf("aggregate requests = %d", g.Stats().Requests)
	}
	// The fleet latency view is the replicas' histograms merged
	// bucket-wise: its count must equal the aggregate request count.
	if lat := g.RequestLatency(); lat.Count() != 9 {
		t.Errorf("merged latency histogram count = %d, want 9", lat.Count())
	}
}

// flakyOrigin fails every second fetch.
type flakyOrigin struct {
	proxy.Origin
	n atomic.Int64
}

func (o *flakyOrigin) Fetch(ctx context.Context, name string) ([]byte, error) {
	if o.n.Add(1)%2 == 0 {
		return nil, errors.New("origin blip")
	}
	return o.Origin.Fetch(ctx, name)
}

func TestReplicaGroupFailover(t *testing.T) {
	// Every second origin fetch fails, whichever replica makes it; the
	// request must fail over to the next replica and succeed there.
	group, err := proxy.NewReplicaGroup(&flakyOrigin{Origin: origin(t)}, 2,
		func(i int) proxy.Config { return proxy.Config{Pipeline: rewrite.NewPipeline()} })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := group.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Dep"}); err != nil {
			t.Fatalf("request %d failed despite healthy replica: %v", i, err)
		}
	}
	// A class no replica can supply still errors.
	if _, err := group.Request(context.Background(), proxy.Lookup{Client: "c", Arch: "dvm", Class: "app/Nope"}); err == nil {
		t.Fatal("nonexistent class served")
	}
}

func TestReplicaGroupConcurrent(t *testing.T) {
	org := origin(t)
	g, err := proxy.NewReplicaGroup(org, 4, func(i int) proxy.Config {
		return proxy.Config{Pipeline: rewrite.NewPipeline(verifier.Filter()), CacheEnabled: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "app/Main"
			if i%2 == 0 {
				name = "app/Dep"
			}
			if _, err := g.Request(context.Background(), proxy.Lookup{Client: fmt.Sprintf("c%d", i), Arch: "dvm", Class: name}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g.Stats().Requests != 64 {
		t.Errorf("requests = %d", g.Stats().Requests)
	}
}

func TestReplicaGroupRejectsEmpty(t *testing.T) {
	if _, err := proxy.NewReplicaGroup(origin(t), 0, func(int) proxy.Config { return proxy.Config{} }); err == nil {
		t.Fatal("accepted zero replicas")
	}
}
