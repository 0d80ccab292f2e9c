package proxy

import "time"

// WithBreakerCooldown returns cfg with its origin breaker probing after
// cooldown in place of resilience.Cooldown.
func WithBreakerCooldown(cfg Config, cooldown time.Duration) Config {
	cfg.breakerCooldown = cooldown
	return cfg
}

// Cached returns p's resident artifact for (arch, class), or nil, without
// touching LRU recency or any counter.
func Cached(p *Proxy, arch, class string) *Artifact {
	arts := p.CacheSnapshot(0, func(a, c string) bool { return a == arch && c == class })
	if len(arts) == 0 {
		return nil
	}
	return arts[0]
}
