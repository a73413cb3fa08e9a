package tracker

import (
	"fmt"
	"math/rand"
	"testing"
)

// The flat trackers must be observably indistinguishable from the map-based
// references on arbitrary interleavings of activations, mitigations and
// REFs. 200 seeds × randomized table budgets and row-space sizes cover the
// regimes that matter: mostly-hit (rows ≪ budget), eviction churn (rows ≫
// budget), spillover resurrection, Graphene's queued-but-evicted rows, and
// TWiCe pruning races.

func diffStream(t *testing.T, seed int64, run func(r *rand.Rand, rows uint32, ops int)) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rowSpaces := []uint32{2, 3, 7, 50, 1000}
	rows := rowSpaces[r.Intn(len(rowSpaces))]
	run(r, rows, 2000)
}

func TestMithrilMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		diffStream(t, seed, func(r *rand.Rand, rows uint32, ops int) {
			entries := 1 + r.Intn(8)
			flat := NewMithril(entries)
			ref := newRefMithril(entries)
			for op := 0; op < ops; op++ {
				if r.Intn(10) == 0 {
					got, want := flat.SelectForMitigation(), ref.SelectForMitigation()
					if got != want {
						t.Fatalf("seed %d op %d: select = %+v, reference %+v", seed, op, got, want)
					}
				} else {
					row := uint32(r.Intn(int(rows)))
					flat.OnActivation(row)
					ref.OnActivation(row)
				}
				if flat.TableLen() != len(ref.counts) {
					t.Fatalf("seed %d op %d: table len = %d, reference %d", seed, op, flat.TableLen(), len(ref.counts))
				}
			}
		})
	}

	// Realistic budgets: row spaces around the budget (mostly hits, the
	// eviction knee, churn) and select-heavy mixes, with an occasional
	// Reset mid-stream.
	resetOnly := 0
	for _, entries := range []int{64, 1024} {
		for seed := int64(0); seed < 24; seed++ {
			r := rand.New(rand.NewSource(seed))
			spaces := []int{entries / 2, entries - 1, entries, entries + 1, 2 * entries}
			rows := spaces[r.Intn(len(spaces))]
			selectOdds := []int{2, 3, 10}[r.Intn(3)]
			p := newMithrilPair(t, entries)
			for op := 0; op < 6000; op++ {
				switch {
				case r.Intn(2000) == 0:
					p.reset()
				case r.Intn(selectOdds) == 0:
					p.mitigate(fmt.Sprintf("entries %d seed %d op %d", entries, seed, op))
				default:
					p.activate(uint32(r.Intn(rows)))
				}
			}
			resetOnly += p.resetOnly
		}
	}
	if resetOnly == 0 {
		t.Fatal("no selection at a realistic budget drew from the reset list alone")
	}
	for _, entries := range []int{64, 1024} {
		mithrilSelectEdges(t, entries)
	}
}

// mithrilPair drives a Mithril and its map reference in lockstep and
// asserts the table size after each step and every selection, against the
// reference and against a full scan of the flat table's slots.
type mithrilPair struct {
	t    *testing.T
	flat *Mithril
	ref  *refMithril
	// resetOnly counts selections made while every live entry sat at the
	// floor, the case that falls through to the reset list.
	resetOnly int
}

func newMithrilPair(t *testing.T, entries int) *mithrilPair {
	return &mithrilPair{t: t, flat: NewMithril(entries), ref: newRefMithril(entries)}
}

func (p *mithrilPair) activate(row uint32) {
	p.flat.OnActivation(row)
	p.ref.OnActivation(row)
	p.checkLen("activate")
}

func (p *mithrilPair) mitigate(where string) Selection {
	p.t.Helper()
	if tb := &p.flat.t; tb.n > 0 && tb.ovN == 0 && tb.resetHead >= 0 && ringEmpty(tb) {
		p.resetOnly++
	}
	wantRow, wantCount, wantSlot := scanMax(&p.flat.t)
	if row, count, slot := p.flat.t.maxEntry(); row != wantRow || count != wantCount || slot != wantSlot {
		p.t.Fatalf("%s: maxEntry = (row %d, count %d, slot %d), full scan (%d, %d, %d)",
			where, row, count, slot, wantRow, wantCount, wantSlot)
	}
	got, want := p.flat.SelectForMitigation(), p.ref.SelectForMitigation()
	if got != want {
		p.t.Fatalf("%s: select = %+v, reference %+v", where, got, want)
	}
	p.checkLen(where)
	return got
}

func (p *mithrilPair) reset() {
	p.flat.Reset()
	p.ref.Reset()
	p.checkLen("reset")
}

func (p *mithrilPair) checkLen(where string) {
	p.t.Helper()
	if p.flat.TableLen() != len(p.ref.counts) {
		p.t.Fatalf("%s: table len = %d, reference %d", where, p.flat.TableLen(), len(p.ref.counts))
	}
}

func ringEmpty(t *mgTable) bool {
	for _, head := range t.ring {
		if head >= 0 {
			return false
		}
	}
	return true
}

// mithrilSelectEdges pins the selection cases the bucket walk treats
// specially: a maximum shared by many rows, a table drained by selections
// until only reset-list entries remain, a Reset in the middle of a stream,
// and an overflow entry migrating back into the ring before it is selected.
func mithrilSelectEdges(t *testing.T, entries int) {
	p := newMithrilPair(t, entries)
	// Many rows tied at the maximum: every row of the table activated
	// the same number of times, in descending row order so the lowest
	// row is the last one touched.
	for round := 0; round < 5; round++ {
		for row := entries - 1; row >= 0; row-- {
			p.activate(uint32(3*row + 1))
		}
	}
	for i := 0; i < entries; i++ {
		sel := p.mitigate(fmt.Sprintf("entries %d tie %d", entries, i))
		if want := uint32(3*i + 1); sel.Row != want {
			t.Fatalf("entries %d tie %d: selected row %d, want %d", entries, i, sel.Row, want)
		}
	}
	// Every entry now sits at the floor: selection must fall through to
	// the reset list, again lowest row first, and keep doing so.
	for i := 0; i < 3; i++ {
		p.mitigate(fmt.Sprintf("entries %d reset-only %d", entries, i))
	}
	if p.resetOnly != 3 {
		t.Fatalf("entries %d: %d selections from the reset list alone, want 3", entries, p.resetOnly)
	}
	// A few rows climb above the floor again; a Reset mid-stream must
	// forget them, bound included.
	for row := uint32(0); row < 40; row++ {
		for k := uint32(0); k <= row%7; k++ {
			p.activate(row)
		}
	}
	p.mitigate(fmt.Sprintf("entries %d before reset", entries))
	p.reset()
	if sel := p.mitigate(fmt.Sprintf("entries %d empty after reset", entries)); sel.OK {
		t.Fatalf("entries %d: select on a reset table = %+v", entries, sel)
	}
	for i := 0; i < 4*entries; i++ {
		p.activate(uint32(i % (entries / 2)))
		if i%5 == 0 {
			p.mitigate(fmt.Sprintf("entries %d after reset %d", entries, i))
		}
	}
	// An overflow entry that the rising floor carries back into the
	// ring unselected, above every count the ring has held: a hot row
	// climbs far past the ring span, then a flood of unique rows raises
	// the floor until the hot row migrates, and only then is the table
	// asked for its maximum.
	p.reset()
	hot := uint32(1 << 20)
	for i := 0; i < 2*mgRingSpan+50; i++ {
		p.activate(hot)
	}
	for row := uint32(0); p.flat.t.ovN > 0; row++ {
		p.activate(row)
	}
	if sel := p.mitigate(fmt.Sprintf("entries %d migrated", entries)); sel.Row != hot {
		t.Fatalf("entries %d: selected row %d after migration, want the hot row %d", entries, sel.Row, hot)
	}
}

func TestGrapheneMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		diffStream(t, seed, func(r *rand.Rand, rows uint32, ops int) {
			entries := 1 + r.Intn(8)
			threshold := int64(1 + r.Intn(20))
			flat := NewGraphene(entries, threshold)
			ref := newRefGraphene(entries, threshold)
			for op := 0; op < ops; op++ {
				if r.Intn(10) == 0 {
					got, want := flat.SelectForMitigation(), ref.SelectForMitigation()
					if got != want {
						t.Fatalf("seed %d op %d: select = %+v, reference %+v", seed, op, got, want)
					}
				} else {
					row := uint32(r.Intn(int(rows)))
					flat.OnActivation(row)
					ref.OnActivation(row)
				}
				if flat.Pending() != len(ref.pendingQ) {
					t.Fatalf("seed %d op %d: pending = %d, reference %d", seed, op, flat.Pending(), len(ref.pendingQ))
				}
				if flat.TableLen() != len(ref.counts) {
					t.Fatalf("seed %d op %d: table len = %d, reference %d", seed, op, flat.TableLen(), len(ref.counts))
				}
			}
		})
	}
}

func TestTWiCeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		diffStream(t, seed, func(r *rand.Rand, rows uint32, ops int) {
			// Thresholds below, around and far above 2×lifeEpochs give
			// pruning that is aggressive, marginal and inert.
			thresholds := []int64{2, 100, 8192, 40000}
			threshold := thresholds[r.Intn(len(thresholds))]
			flat := NewTWiCe(threshold)
			ref := newRefTWiCe(threshold)
			for op := 0; op < ops; op++ {
				switch r.Intn(12) {
				case 0:
					got, want := flat.SelectForMitigation(), ref.SelectForMitigation()
					if got != want {
						t.Fatalf("seed %d op %d: select = %+v, reference %+v", seed, op, got, want)
					}
				case 1, 2:
					flat.OnREF()
					ref.OnREF()
				default:
					row := uint32(r.Intn(int(rows)))
					flat.OnActivation(row)
					ref.OnActivation(row)
				}
				if flat.TableSize() != len(ref.entries) {
					t.Fatalf("seed %d op %d: table size = %d, reference %d", seed, op, flat.TableSize(), len(ref.entries))
				}
			}
		})
	}
}

// TestMithrilOverflowMigration forces counts far above the ring span so the
// overflow list and its lazy-minimum migration are exercised: one row is
// hammered thousands of activations above the floor, then unique-row floods
// raise the floor past the migration trigger.
func TestMithrilOverflowMigration(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		entries := 2 + r.Intn(4)
		flat := NewMithril(entries)
		ref := newRefMithril(entries)
		hot := uint32(1 << 20)
		for i := 0; i < 2*mgRingSpan+r.Intn(1000); i++ {
			flat.OnActivation(hot)
			ref.OnActivation(hot)
		}
		// Flood with unique rows: every miss on a full table raises the
		// floor, eventually marching it through the hot row's count.
		next := uint32(0)
		for i := 0; i < 6*mgRingSpan; i++ {
			flat.OnActivation(next)
			ref.OnActivation(next)
			next++
			if r.Intn(50) == 0 {
				got, want := flat.SelectForMitigation(), ref.SelectForMitigation()
				if got != want {
					t.Fatalf("seed %d: select = %+v, reference %+v", seed, got, want)
				}
			}
			if flat.TableLen() != len(ref.counts) {
				t.Fatalf("seed %d: table len = %d, reference %d", seed, flat.TableLen(), len(ref.counts))
			}
		}
	}
}
