package tracker

// The map-based tracker implementations this package shipped before the
// flat-table rewrite, kept verbatim as executable specifications. The
// differential tests drive each reference and its flat replacement with
// identical streams and assert identical observable behaviour; the maps'
// nondeterministic iteration is harmless because every decision reduces to
// a total order (max count, ties to the lowest row) or a value sweep.

type refMithril struct {
	entries int
	counts  map[uint32]int64
	spill   int64
}

func newRefMithril(entries int) *refMithril {
	return &refMithril{entries: entries, counts: make(map[uint32]int64, entries)}
}

func (m *refMithril) OnActivation(row uint32) {
	if _, ok := m.counts[row]; ok {
		m.counts[row]++
		return
	}
	if len(m.counts) < m.entries {
		m.counts[row] = m.spill + 1
		return
	}
	m.spill++
	for r, c := range m.counts {
		if c <= m.spill {
			delete(m.counts, r)
		}
	}
	if len(m.counts) < m.entries {
		m.counts[row] = m.spill + 1
	}
}

func (m *refMithril) SelectForMitigation() Selection {
	var best uint32
	bestCount := int64(-1)
	for r, c := range m.counts {
		if c > bestCount || (c == bestCount && r < best) {
			best, bestCount = r, c
		}
	}
	if bestCount < 0 {
		return Selection{}
	}
	m.counts[best] = m.spill
	return Selection{Row: best, Level: 1, OK: true}
}

func (m *refMithril) Reset() {
	clear(m.counts)
	m.spill = 0
}

// scanMax is the selection mgTable made before it kept a bound on the
// highest ring count: a scan of every slot for the highest count, ties to
// the lowest row. count is -1 when the table is empty.
func scanMax(t *mgTable) (row uint32, count int64, slot int32) {
	count, slot = -1, -1
	for s, c := range t.counts {
		if c < 0 {
			continue
		}
		if r := t.rows[s]; c > count || (c == count && r < row) {
			row, count, slot = r, c, int32(s)
		}
	}
	return row, count, slot
}

type refGraphene struct {
	entries   int
	threshold int64
	counts    map[uint32]int64
	spill     int64
	pendingQ  []uint32
	inQueue   map[uint32]bool
}

func newRefGraphene(entries int, threshold int64) *refGraphene {
	return &refGraphene{
		entries:   entries,
		threshold: threshold,
		counts:    make(map[uint32]int64, entries),
		inQueue:   make(map[uint32]bool),
	}
}

func (g *refGraphene) OnActivation(row uint32) {
	if _, ok := g.counts[row]; ok {
		g.counts[row]++
	} else if len(g.counts) < g.entries {
		g.counts[row] = g.spill + 1
	} else {
		g.spill++
		for r, c := range g.counts {
			if c <= g.spill {
				delete(g.counts, r)
			}
		}
		if len(g.counts) < g.entries {
			g.counts[row] = g.spill + 1
		}
	}
	if c, ok := g.counts[row]; ok && c >= g.threshold && !g.inQueue[row] {
		g.pendingQ = append(g.pendingQ, row)
		g.inQueue[row] = true
	}
}

func (g *refGraphene) SelectForMitigation() Selection {
	if len(g.pendingQ) == 0 {
		return Selection{}
	}
	row := g.pendingQ[0]
	g.pendingQ = g.pendingQ[1:]
	delete(g.inQueue, row)
	g.counts[row] = g.spill
	return Selection{Row: row, Level: 1, OK: true}
}

type refTWiCeEntry struct {
	count int64
	life  int64
}

type refTWiCe struct {
	threshold  int64
	lifeEpochs int64
	entries    map[uint32]*refTWiCeEntry
}

func newRefTWiCe(threshold int64) *refTWiCe {
	return &refTWiCe{
		threshold:  threshold,
		lifeEpochs: 8192,
		entries:    make(map[uint32]*refTWiCeEntry),
	}
}

func (t *refTWiCe) OnActivation(row uint32) {
	if e, ok := t.entries[row]; ok {
		e.count++
		return
	}
	t.entries[row] = &refTWiCeEntry{count: 1}
}

func (t *refTWiCe) OnREF() {
	for row, e := range t.entries {
		e.life++
		need := t.threshold * e.life / t.lifeEpochs
		if e.count < need {
			delete(t.entries, row)
		}
	}
}

func (t *refTWiCe) SelectForMitigation() Selection {
	var best uint32
	bestCount := int64(-1)
	for row, e := range t.entries {
		if e.count > bestCount || (e.count == bestCount && row < best) {
			best, bestCount = row, e.count
		}
	}
	if bestCount < t.threshold/2 {
		return Selection{}
	}
	delete(t.entries, best)
	return Selection{Row: best, Level: 1, OK: true}
}
