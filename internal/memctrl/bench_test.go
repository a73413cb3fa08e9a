package memctrl

import (
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/mapping"
	"autorfm/internal/rng"
)

// BenchmarkTryIssue times the scheduler on a steady stream through one
// AutoRFM-4 controller: 32 reads stay outstanding, each completion submits
// the next, and every other request reopens a row seen recently so row
// hits, conflicts and tFAW stalls all occur. One op is one completed read
// with everything behind it: its ACT (or row hit) and CAS, the wake events,
// the device's tracker and the mitigations closed windows start.
func BenchmarkTryIssue(b *testing.B) {
	const depth = 32
	r := newRig(dram.ModeAutoRFM, 4, "fractal")
	src := rng.New(1)
	lines := make([]uint64, 1<<12)
	for i := range lines {
		loc := mapping.Location{
			Bank: src.Intn(r.geo.Banks),
			Row:  uint32(src.Intn(r.geo.RowsPerBank)),
			Col:  uint16(src.Intn(r.geo.ColsPerRow)),
		}
		if i >= 8 && i%2 == 0 {
			prev := r.m.Map(lines[i-1-src.Intn(8)])
			loc.Bank, loc.Row = prev.Bank, prev.Row
		}
		lines[i] = r.m.Unmap(loc)
	}
	next, done := 0, 0
	reqs := make([]Request, depth)
	for i := range reqs {
		req := &reqs[i]
		req.Done = func(clk.Tick) {
			done++
			req.Line = lines[next&(len(lines)-1)]
			next++
			r.c.Submit(req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range reqs {
		reqs[i].Line = lines[next]
		next++
		r.c.Submit(&reqs[i])
	}
	for done < b.N && r.q.Step() {
	}
}
