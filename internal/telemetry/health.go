package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// HealthSchemaVersion is the "v" field every /healthz response carries.
// Bump it only for incompatible changes; consumers reject versions they
// do not understand instead of misparsing them.
const HealthSchemaVersion = 1

// Health statuses.
const (
	StatusOK       = "ok"
	StatusDegraded = "degraded"
)

// Health is the versioned schema served on every daemon's /healthz.
// PRs 1–3 left the proxy, the security server, and the cluster node
// each with a bespoke text payload; this struct replaces all of them
// with one JSON shape (documented in DESIGN.md §13) so fleet tooling can
// poll any daemon the same way.
type Health struct {
	// V is the schema version (HealthSchemaVersion).
	V int `json:"v"`
	// Service names the daemon: "proxy", "secd", "monitor".
	Service string `json:"service"`
	// Status is StatusOK, or StatusDegraded when the daemon is serving
	// in a degraded mode (e.g. origin breaker open).
	Status string `json:"status"`
	// Counters mirrors the registry's counters (Prometheus names).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges mirrors the registry's gauges.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Breakers reports each upstream circuit breaker by name.
	Breakers map[string]BreakerHealth `json:"breakers,omitempty"`
	// Epoch is the live membership epoch (cluster nodes only): a
	// convergent counter that advances on every accepted membership
	// assertion, so two nodes reporting the same epoch hold the same
	// view. Zero for standalone daemons.
	Epoch uint64 `json:"epoch,omitempty"`
	// Ring is the cluster's *live* membership view (cluster nodes only):
	// one entry per known member, including suspects, the dead, and
	// draining members — not the boot-time seed list.
	Ring []RingMemberHealth `json:"ring,omitempty"`
}

// BreakerHealth is one circuit breaker's snapshot in Health.
type BreakerHealth struct {
	State     string `json:"state"`
	Trips     int64  `json:"trips"`
	Successes int64  `json:"successes"`
	Failures  int64  `json:"failures"`
}

// Membership states a RingMemberHealth.State may carry.
const (
	MemberAlive    = "alive"
	MemberSuspect  = "suspect"
	MemberDead     = "dead"
	MemberDraining = "draining"
)

// RingMemberHealth is one cluster member in Health.Ring.
type RingMemberHealth struct {
	Member string `json:"member"`
	// State is the member's live membership state: MemberAlive,
	// MemberSuspect, MemberDead, or MemberDraining.
	State string `json:"state"`
	// Link is the state of the reporting node's link to this member
	// ("closed" = healthy, "open" = presumed down, "half-open" =
	// probing, "-" for self).
	Link string `json:"link"`
	Self bool   `json:"self,omitempty"`
	// Divergences is the member's divergence strikes on the reporting
	// node, the reporter's own included; Quarantined marks it past the
	// quarantine threshold (excluded from peer fill and variant
	// selection). Both are additive fields within schema v1 — absent
	// when attestation is off.
	Divergences int  `json:"divergences,omitempty"`
	Quarantined bool `json:"quarantined,omitempty"`
}

// Health builds the registry-derived part of a health report; callers
// add service-specific fields (Breakers, Ring) before serving it.
func (r *Registry) Health(status string) Health {
	return Health{
		V:        HealthSchemaVersion,
		Service:  r.service,
		Status:   status,
		Counters: r.CounterValues(),
		Gauges:   r.GaugeValues(),
	}
}

// WriteHealth serves a health report as JSON.
func WriteHealth(w http.ResponseWriter, h Health) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

// HealthHandler serves f's report on each request.
func HealthHandler(f func() Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteHealth(w, f())
	})
}

// ParseHealth decodes and validates a /healthz payload: the shared
// round-trip assertion every daemon's tests run against their own
// endpoint.
func ParseHealth(data []byte) (Health, error) {
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return Health{}, fmt.Errorf("telemetry: healthz: %v", err)
	}
	if h.V != HealthSchemaVersion {
		return Health{}, fmt.Errorf("telemetry: healthz: schema version %d, want %d", h.V, HealthSchemaVersion)
	}
	if h.Service == "" {
		return Health{}, fmt.Errorf("telemetry: healthz: missing service")
	}
	if h.Status != StatusOK && h.Status != StatusDegraded {
		return Health{}, fmt.Errorf("telemetry: healthz: bad status %q", h.Status)
	}
	if len(h.Ring) > 0 && h.Epoch == 0 {
		return Health{}, fmt.Errorf("telemetry: healthz: ring view without a membership epoch")
	}
	for _, m := range h.Ring {
		if m.Member == "" {
			return Health{}, fmt.Errorf("telemetry: healthz: ring member without an address")
		}
		switch m.State {
		case MemberAlive, MemberSuspect, MemberDead, MemberDraining:
		default:
			return Health{}, fmt.Errorf("telemetry: healthz: ring member %s has bad state %q", m.Member, m.State)
		}
	}
	return h, nil
}
