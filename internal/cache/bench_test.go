package cache

import "testing"

// BenchmarkCacheAccess times Access on the default LLC, filled to capacity
// by sequential warm lines. hit cycles through resident lines across all
// sets; miss accesses lines never seen before, spaced so the stream
// prefetcher stays idle, and drains the event queue every 16 misses, so
// each op also pays its fill's victim scan and eviction (and writeback
// when the victim is dirty).
func BenchmarkCacheAccess(b *testing.B) {
	cfg := DefaultConfig()
	lines := uint64(cfg.SizeBytes / cfg.LineBytes)
	setup := func(b *testing.B) *Cache {
		c, _, _ := newRig(b, cfg)
		for l := uint64(0); l < lines; l++ {
			c.Warm(l, l%3 == 0)
		}
		return c
	}
	b.Run("hit", func(b *testing.B) {
		c := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint64(i)*7919%lines, i%4 == 0, nil)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(lines+uint64(i)*4099, i%4 == 0, nil)
			if i%16 == 15 {
				drain(c.q, c.mc)
			}
		}
		drain(c.q, c.mc)
	})
}
