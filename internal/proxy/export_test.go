package proxy

import "time"

// WithBreakerCooldown returns cfg with its origin breaker probing after
// cooldown in place of resilience.Cooldown.
func WithBreakerCooldown(cfg Config, cooldown time.Duration) Config {
	cfg.breakerCooldown = cooldown
	return cfg
}
