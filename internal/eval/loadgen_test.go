package eval

import (
	"testing"
	"time"
)

// smokeConfig is the CI-sized open-loop run: 10^4 simulated clients,
// short window, fixed seed.
func smokeConfig() OverloadConfig {
	cfg := DefaultOverloadConfig()
	cfg.Clients = 10_000
	cfg.Duration = 500 * time.Millisecond
	return cfg
}

// TestLoadSmoke is the load-smoke gate: at moderate overload with
// admission control on, no accepted request fails, nothing falls into
// the unclassified-error bucket, and the shed rate stays bounded.
func TestLoadSmoke(t *testing.T) {
	cfg := smokeConfig()
	cfg.Multiples = []float64{1.5}
	rows, text, err := Overload(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + text)
	r := rows[0]
	if r.Arrivals < 50 {
		t.Fatalf("only %d arrivals in the window; harness is not offering load", r.Arrivals)
	}
	if r.Accepted == 0 {
		t.Fatal("no accepted requests at 1.5x saturation")
	}
	if r.Errors != 0 {
		t.Fatalf("unclassified errors = %d, want 0 (every failure must be a shed or a client abandon)", r.Errors)
	}
	// At 1.5x offered, shedding must be active but cannot be refusing
	// close to everything.
	if r.ShedRate > 0.9 {
		t.Errorf("shed rate = %.2f at 1.5x saturation, want < 0.9", r.ShedRate)
	}
	if got := r.Stats.FetchErrors; got != 0 {
		t.Errorf("proxy fetch errors = %d, want 0", got)
	}
}

// TestOverloadAdmissionKeepsLatencyAndGoodput is the acceptance
// criterion for the admission engine, scaled to CI: at 2x saturation
// with shedding on, the accepted p99 stays within 5x of the 0.5x-load
// p99, and goodput holds >= 70% of the peak point — while the
// unprotected baseline at the same offered load loses most of its
// goodput to client-abandoned requests.
func TestOverloadAdmissionKeepsLatencyAndGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load sweep")
	}
	cfg := smokeConfig()
	cfg.Duration = 800 * time.Millisecond
	cfg.Multiples = []float64{0.5, 1, 2, 4}
	// Wide key space: the wait for "your" coalesced flight at full
	// backlog (Applets/origin-rate) far exceeds client patience, so
	// flight dedup cannot quietly absorb the overload.
	cfg.Applets = 4096

	origin, err := Corpus(cfg.Applets, cfg.AppletKB*1024, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := MeasureSaturation(origin, cfg, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	rows, text, err := Overload(cfg, sat)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + text)
	light, peakRow, over, extreme := rows[0], rows[1], rows[2], rows[3]
	if over.Errors != 0 || light.Errors != 0 {
		t.Fatalf("unclassified errors: light=%d over=%d", light.Errors, over.Errors)
	}

	// Latency bound: shedding keeps the accepted tail flat-ish instead
	// of queueing-delay-shaped.
	if light.P99 > 0 && over.P99 > 5*light.P99 {
		t.Errorf("accepted p99 at 2x = %v, more than 5x the 0.5x-load p99 %v", over.P99, light.P99)
	}
	// Goodput bound: collapse means goodput falling as offered load
	// rises. 2x must retain >= 70% of the best goodput seen up to and
	// including that point. (Past 2x goodput keeps rising here — flight
	// coalescing amplifies with load — so the bound is about the shape
	// of the curve, not its tail.)
	peak := peakRow.GoodputRPS
	for _, r := range rows[:3] {
		if r.GoodputRPS > peak {
			peak = r.GoodputRPS
		}
	}
	if over.GoodputRPS < 0.7*peak {
		t.Errorf("goodput at 2x = %.0f r/s, below 70%% of peak %.0f r/s", over.GoodputRPS, peak)
	}

	// The unprotected baseline at 4x offered load: no shedding, so the
	// origin queue grows without bound and clients abandon at their
	// deadlines instead of being refused up front. (At 2x, flight
	// coalescing alone can still absorb the excess; 4x is past any
	// dedup ceiling.)
	base := cfg
	base.MaxQueue = 0
	base.Multiples = []float64{4}
	baseRows, baseText, err := Overload(base, sat)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + baseText)
	b := baseRows[0]
	if b.Shed != 0 {
		t.Errorf("unprotected baseline shed %d requests; MaxQueue 0 must disable admission", b.Shed)
	}
	if b.Abandoned == 0 {
		t.Error("unprotected baseline had zero client abandons at 4x saturation; overload never materialized")
	}
	// The headline trade: the unprotected proxy strands a third or more
	// of its clients, each discovering the failure only by burning its
	// whole deadline (the accepted tail rides the deadline itself);
	// shedding answers immediately and keeps the accepted tail at
	// light-load levels.
	if extreme.P99*3 > b.P99 {
		t.Errorf("protected accepted p99 at 4x = %v, want at least 3x below unprotected %v", extreme.P99, b.P99)
	}
	if float64(b.Abandoned) < 0.3*float64(b.Arrivals) {
		t.Errorf("unprotected abandons = %d of %d arrivals; expected overload to strand >= 30%%", b.Abandoned, b.Arrivals)
	}
	t.Logf("goodput at 4x: protected %.0f r/s (shed %.0f%%) vs unprotected %.0f r/s (stranded %.0f%%)",
		extreme.GoodputRPS, extreme.ShedRate*100, b.GoodputRPS, float64(b.Abandoned)/float64(b.Arrivals)*100)
}
