// Package telemetry is the DVM's unified observability layer: one
// substrate shared by every daemon and service package for (1) request
// timing, (2) cross-hop traces, (3) fixed-bucket mergeable latency
// histograms, and (4) a common metrics/health surface.
//
// The paper treats profiling and monitoring as first-class DVM services
// (§4.3); this package extends that stance to the infrastructure
// itself. A request that hops client → non-owner proxy → owner peer →
// origin can be followed end to end when its entry point asks for it: a
// Trace rides context.Context locally and the X-DVM-Trace header across
// HTTP hops, and each hop's spans return to the caller so per-stage
// breakdowns (fetch vs verify vs rewrite vs peer hop vs queue wait) can
// be printed at the entry point. An untraced request carries no trace on
// any hop; its stage timers still feed the histograms.
//
// Conventions enforced across the repo (see DESIGN.md §13):
//
//   - All request timing goes through Timer / Trace spans / Histogram —
//     never raw time.Since. A lint test (lint_test.go) fails the build
//     when a package under internal/ times requests by hand.
//   - All latency histograms share DefaultLatencyBounds so any two
//     snapshots — from different services or different cluster nodes —
//     merge by bucket-wise addition.
//   - Metric names are Prometheus-style: dvm_<service>_<name>, counters
//     suffixed _total, histograms suffixed _seconds.
package telemetry

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Timer measures one duration. It exists so that "how long did this
// take" has exactly one implementation: the telemetry lint forbids raw
// time.Since in service packages, and this type is the sanctioned
// replacement.
type Timer struct{ start time.Time }

// StartTimer starts measuring now.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the time since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// traceSeq disambiguates trace IDs created in the same process; the
// random base makes IDs distinct across processes.
var (
	traceSeq  atomic.Uint64
	traceBase = rand.Uint64()
)

// newTraceID returns a process-unique 16-hex-digit trace identifier.
func newTraceID() string {
	n := traceSeq.Add(1)
	// splitmix64 of (base, seq): cheap, well-spread, no shared lock.
	z := traceBase + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return fmt.Sprintf("%016x", z^(z>>31))
}
