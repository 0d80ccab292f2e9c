package eval

import (
	"strings"
	"testing"
)

// TestPrefetchSmoke is the CI prefetch gate: on the warmed 2-node walk
// the predictor must convert at least one would-be peer round trip into
// a local hit, every pushed byte must be accounted for (hit, resident,
// or reported as waste — nothing hidden), and the ingestion gate must
// refuse unattested prefetch pushes.
func TestPrefetchSmoke(t *testing.T) {
	res, text, err := PrefetchBench(48, 4)
	if err != nil {
		t.Fatal(err)
	}

	if res.Hits == 0 {
		t.Errorf("prefetch hit rate is zero: %+v", res)
	}
	if !res.UnattestedRejected {
		t.Error("unattested prefetch push was accepted")
	}

	// Accounting: every class the other node owns is served by either a
	// peer hop or a prefetch hit — nothing double-counted, nothing lost.
	if res.PeerHops+res.Hits != res.RemoteClasses {
		t.Errorf("peer hops (%d) + prefetch hits (%d) != remote classes (%d)",
			res.PeerHops, res.Hits, res.RemoteClasses)
	}
	// The ordered walk touches every prefetched class right after it
	// lands, so the ledger must balance with zero waste and zero
	// resident-unused bytes; anything else means pushed bytes leaked out
	// of the accounting.
	if res.Inserted != res.Hits {
		t.Errorf("inserted %d != hits %d on an ordered walk", res.Inserted, res.Hits)
	}
	if res.WasteBytes != 0 || res.ResidentBytes != 0 {
		t.Errorf("waste=%dB resident=%dB, want 0/0 on an ordered walk", res.WasteBytes, res.ResidentBytes)
	}
	if res.Received < res.Inserted {
		t.Errorf("received %d < inserted %d", res.Received, res.Inserted)
	}

	for _, want := range []string{"no prefetch", "prefetch ledger", "unattested prefetch push rejected: true"} {
		if !strings.Contains(text, want) {
			t.Errorf("bench text missing %q:\n%s", want, text)
		}
	}
}
