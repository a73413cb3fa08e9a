package dram

import (
	"fmt"

	"autorfm/internal/clk"
	"autorfm/internal/mapping"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/telemetry"
	"autorfm/internal/tracker"
)

// Mode selects how the device obtains time for Rowhammer mitigation.
type Mode int

const (
	// ModeNone performs no Rowhammer mitigation (the performance baseline).
	ModeNone Mode = iota
	// ModeRFM is the DDR5 blocking Refresh-Management scheme: the memory
	// controller counts activations (RAA) and issues explicit RFM commands
	// that stall the whole bank for tRFM (Section II-E).
	ModeRFM
	// ModeAutoRFM is the paper's transparent scheme: the device mitigates on
	// its own at every AutoRFMTH activations, keeping only one subarray busy
	// and ALERTing conflicting activations (Section IV).
	ModeAutoRFM
	// ModePRAC models per-row activation counting with Alert Back-Off
	// (PRAC+ABO, implemented in the style of MOAT; Section VII-A).
	ModePRAC
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeRFM:
		return "rfm"
	case ModeAutoRFM:
		return "autorfm"
	case ModePRAC:
		return "prac"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes the device-side configuration shared by all banks.
type Config struct {
	Geo    mapping.Geometry
	Timing clk.Timing
	Mode   Mode
	// TH is the mitigation interval in activations: RFMTH for ModeRFM,
	// AutoRFMTH for ModeAutoRFM. It sets the tracker window.
	TH int
	// NewTracker builds the per-bank tracker. Defaults to MINT with window
	// TH; recursive slot reservation follows the policy's Recursive().
	NewTracker func(bank int, r *rng.Source) tracker.Tracker
	// NewPolicy builds the per-bank victim-refresh policy. Defaults to
	// Fractal Mitigation.
	NewPolicy func(bank int, r *rng.Source) mitigation.Policy
	// PRACETh is the per-row counter value at which a PRAC device raises
	// ABO. Required for ModePRAC.
	PRACETh int
	// Audit gives every bank a per-row activation ledger (costs time and
	// memory, off for perf runs). The security harness builds the one bank
	// it drives with NewBank, so it pays for one ledger, not one per bank.
	Audit bool
	// AuditThreshold is the single-sided activation count at which the
	// ledger records a Rowhammer failure (TRH-S = 2 × TRH-D).
	AuditThreshold uint32
	// Seed seeds all device-side PRNGs.
	Seed uint64
	// Trace, when non-nil, receives the device-side mitigation windows
	// (telemetry; observational only).
	Trace *telemetry.CommandTrace
}

func (c *Config) fillDefaults() {
	if c.TH == 0 {
		c.TH = 4
	}
	if c.NewPolicy == nil {
		c.NewPolicy = func(bank int, r *rng.Source) mitigation.Policy {
			return mitigation.NewFractal(r)
		}
	}
	if c.NewTracker == nil {
		th := c.TH
		c.NewTracker = func(bank int, r *rng.Source) tracker.Tracker {
			// The recursive flag must match the policy; resolved in NewDevice.
			return tracker.NewMINT(th, false, r)
		}
	}
}

// BankStats counts device-side events in one bank.
type BankStats struct {
	Acts            uint64 // successful demand activations
	Alerts          uint64 // ACTs declined because they hit the SAUM
	Mitigations     uint64 // mitigations performed (any mode)
	TransitiveMits  uint64 // mitigations at level > 1 (recursive chains)
	VictimRefreshes uint64 // victim-row refreshes issued
	ABOAlerts       uint64 // PRAC counter overflows signalled
	SAUMBusy        clk.Tick
}

// ActResult reports the device-side outcome of an activation attempt.
type ActResult struct {
	// Alert is true when the ACT conflicted with the subarray under
	// mitigation: the ACT failed and must be retried after the mitigation
	// time (the MC marks the bank busy, Fig 7).
	Alert bool
	// ABO is true when a PRAC per-row counter reached ETH on this ACT; the
	// MC must grant mitigation time (back-off).
	ABO bool
	// WindowClosed is true when this ACT completed an AutoRFM window: the
	// mitigation will start at this ACT's precharge, which the MC signals
	// via StartPendingMitigation.
	WindowClosed bool
}

// Bank models one DRAM bank.
type Bank struct {
	ID  int
	cfg *Config

	trk    tracker.Tracker
	policy mitigation.Policy
	r      *rng.Source

	// AutoRFM window state.
	actsInWindow int
	pendingMit   bool

	// SAUM state: the subarray under mitigation and until when.
	saum      int
	saumUntil clk.Tick

	// PRAC per-row counters: a flat per-bank slice indexed by row, the
	// dense counter-per-row array the PRAC DDR5 extension actually adds.
	pracCounts []uint32
	aboRow     uint32
	aboPending bool

	Stats  BankStats
	Ledger *Ledger
}

// Device is the full DRAM channel: all banks plus shared configuration.
type Device struct {
	Cfg   Config
	Banks []*Bank

	// prac holds every bank's PRAC counters back to back, allocated the
	// first time the device is in ModePRAC and kept across mode changes;
	// each bank's pracCounts is its slice of it while in ModePRAC.
	prac []uint32
}

// NewDevice builds the device: one tracker, policy and PRNG per bank.
func NewDevice(cfg Config) *Device {
	cfg.fillDefaults()
	d := &Device{Cfg: cfg}
	d.Banks = make([]*Bank, cfg.Geo.Banks)
	for i := range d.Banks {
		d.Banks[i] = newBank(&d.Cfg, i)
	}
	d.slicePRAC()
	return d
}

// slicePRAC hands each bank its slice of the device's PRAC counter buffer
// in ModePRAC, allocating the buffer if the device has none, and takes the
// slices away in any other mode. It leaves the counter values as they are.
func (d *Device) slicePRAC() {
	rows := d.Cfg.Geo.RowsPerBank
	if d.Cfg.Mode == ModePRAC && d.prac == nil {
		d.prac = make([]uint32, len(d.Banks)*rows)
	}
	for i, b := range d.Banks {
		b.pracCounts = nil
		if d.Cfg.Mode == ModePRAC {
			b.pracCounts = d.prac[i*rows : (i+1)*rows : (i+1)*rows]
		}
	}
}

// NewBank builds bank id of the device cfg describes, on its own: the
// result is bit-identical to NewDevice(cfg).Banks[id], without the cost of
// the other banks' pipelines, PRAC counters and ledgers. The security
// harness drives a single bank this way.
func NewBank(cfg Config, id int) *Bank {
	cfg.fillDefaults()
	b := newBank(&cfg, id)
	if cfg.Mode == ModePRAC {
		b.pracCounts = make([]uint32, cfg.Geo.RowsPerBank)
	}
	return b
}

// newBank builds bank id reading the shared device config cfg, without its
// PRAC counters: the caller provides those.
func newBank(cfg *Config, id int) *Bank {
	b := &Bank{ID: id, cfg: cfg}
	b.buildPipeline(cfg)
	if cfg.Audit {
		b.Ledger = NewLedger(cfg.Geo.RowsPerBank, cfg.AuditThreshold)
	}
	return b
}

// buildPipeline constructs the bank's fresh-state device pipeline — PRNG,
// policy, tracker — and zeroes the per-run scalar state. It is the shared
// core of newBank and Reset: both produce bit-identical bank state.
func (b *Bank) buildPipeline(cfg *Config) {
	r := rng.New(cfg.Seed ^ (0xb1a5ed<<16 + uint64(b.ID)*0x9e37))
	pol := cfg.NewPolicy(b.ID, r)
	trk := cfg.NewTracker(b.ID, r)
	// If the policy is recursive and the default MINT tracker is in
	// use, it must reserve the transitive slot (W+1 selection).
	if m, ok := trk.(*tracker.MINT); ok && pol.Recursive() && m.Window() == cfg.TH {
		trk = tracker.NewMINT(cfg.TH, true, r)
	}
	b.trk, b.policy, b.r = trk, pol, r
	b.actsInWindow, b.pendingMit = 0, false
	b.saum, b.saumUntil = -1, 0
	b.aboRow, b.aboPending = 0, false
	b.Stats = BankStats{}
}

// Reset reinitialises the device for cfg, reusing its biggest allocations —
// the PRAC counter buffer and the per-bank audit ledgers — instead of
// reallocating them, and reports whether it could. Reuse requires the same
// geometry and audit setting (those decide how large the arrays are and
// whether ledgers exist). The mode may change: the PRAC counter buffer is
// kept while the device is in another mode, cleared on a Reset into
// ModePRAC, and allocated by the first one if the device has never been in
// ModePRAC. Everything else — seed, TH, tracker/policy constructors, trace
// attachment — is replaced wholesale, and the per-bank pipelines are
// rebuilt from the new constructors, so the post-Reset device is
// bit-identical to NewDevice(cfg) (pinned by TestDeviceResetMatchesNew).
func (d *Device) Reset(cfg Config) bool {
	cfg.fillDefaults()
	if cfg.Geo != d.Cfg.Geo || cfg.Audit != d.Cfg.Audit {
		return false
	}
	d.Cfg = cfg
	if cfg.Mode == ModePRAC {
		clear(d.prac)
	}
	d.slicePRAC()
	for _, b := range d.Banks {
		b.buildPipeline(&d.Cfg)
		if b.Ledger != nil {
			b.Ledger.threshold = cfg.AuditThreshold
			b.Ledger.Reset()
		}
	}
	return true
}

// Tracker exposes the bank's tracker (used by attack harnesses).
func (b *Bank) Tracker() tracker.Tracker { return b.trk }

// Policy exposes the bank's mitigation policy.
func (b *Bank) Policy() mitigation.Policy { return b.policy }

// SAUMActive reports whether a subarray is under mitigation at time now.
func (b *Bank) SAUMActive(now clk.Tick) bool {
	return b.saum >= 0 && now < b.saumUntil
}

// SAUM returns the subarray under mitigation (-1 if none) and its busy-until
// time.
func (b *Bank) SAUM() (int, clk.Tick) { return b.saum, b.saumUntil }

// Activate attempts a demand activation of row at time now. row must be
// below the configured RowsPerBank: the ledger and the PRAC counters are
// flat per-row arrays (as the hardware's are), so an out-of-range row is a
// harness addressing bug, reported here rather than as a raw index panic
// deep in the bookkeeping.
func (b *Bank) Activate(now clk.Tick, row uint32) ActResult {
	if int(row) >= b.cfg.Geo.RowsPerBank {
		panic(fmt.Sprintf("dram: ACT row %d out of range (bank has %d rows)",
			row, b.cfg.Geo.RowsPerBank))
	}
	var res ActResult
	if b.cfg.Mode == ModeAutoRFM && b.SAUMActive(now) &&
		b.cfg.Geo.Subarray(row) == b.saum {
		// Conflict with the subarray under mitigation: the DRAM chip skips
		// the ACT and asserts ALERT (Section IV-A).
		b.Stats.Alerts++
		res.Alert = true
		return res
	}
	b.Stats.Acts++
	if b.Ledger != nil {
		b.Ledger.RecordAct(row)
	}
	switch b.cfg.Mode {
	case ModeRFM, ModeAutoRFM:
		b.trk.OnActivation(row)
	case ModePRAC:
		b.pracCounts[row]++
		if int(b.pracCounts[row]) >= b.cfg.PRACETh && !b.aboPending {
			b.aboRow, b.aboPending = row, true
			b.Stats.ABOAlerts++
			res.ABO = true
		}
	}
	if b.cfg.Mode == ModeAutoRFM {
		b.actsInWindow++
		if b.actsInWindow >= b.cfg.TH {
			b.actsInWindow = 0
			b.pendingMit = true
			res.WindowClosed = true
		}
	}
	return res
}

// StartPendingMitigation is called by the MC at the precharge that closes an
// AutoRFM window. The bank asks its tracker for the aggressor, performs the
// victim refreshes, and marks that row's subarray as the SAUM for the
// mitigation time (NumRefreshes × tRC ≈ 200ns).
func (b *Bank) StartPendingMitigation(prechargeTime clk.Tick) {
	if !b.pendingMit {
		return
	}
	b.pendingMit = false
	sel := b.trk.SelectForMitigation()
	if !sel.OK {
		return
	}
	b.mitigate(sel)
	b.saum = b.cfg.Geo.Subarray(sel.Row)
	dur := b.cfg.Timing.MitigationTime(b.policy.NumRefreshes())
	b.saumUntil = prechargeTime + dur
	b.Stats.SAUMBusy += dur
	if b.cfg.Trace != nil {
		b.cfg.Trace.Record(prechargeTime, dur, telemetry.KindMIT, telemetry.CauseAutoRFM, b.ID, sel.Row)
	}
}

// ExecuteRFM performs one mitigation under an explicit RFM command
// (ModeRFM); the MC has already stalled the bank for tRFM.
func (b *Bank) ExecuteRFM() {
	sel := b.trk.SelectForMitigation()
	if sel.OK {
		b.mitigate(sel)
	}
}

// ExecuteREF models one REF command: the periodic refresh of one row group,
// plus — in RFM mode — a borrowed-time mitigation (REF reduces RAA by RFMTH
// because the device mitigates during tRFC; Section II-E).
func (b *Bank) ExecuteREF(refIndex uint64) {
	if b.Ledger != nil {
		b.Ledger.RecordPeriodicRefresh(refIndex)
	}
	if ra, ok := b.trk.(tracker.REFAware); ok {
		ra.OnREF()
	}
	if b.cfg.Mode == ModeRFM {
		sel := b.trk.SelectForMitigation()
		if sel.OK {
			b.mitigate(sel)
		}
	}
}

// ExecutePRACBackoff performs the mitigation the device requested via ABO:
// the row whose counter crossed ETH has its neighbourhood refreshed and its
// counter reset. The MC has already stalled for the back-off time.
func (b *Bank) ExecutePRACBackoff() {
	if !b.aboPending {
		return
	}
	b.aboPending = false
	row := b.aboRow
	b.pracCounts[row] = 0
	b.mitigate(tracker.Selection{Row: row, Level: 1, OK: true})
}

// mitigate issues the policy's victim refreshes for sel and records them.
func (b *Bank) mitigate(sel tracker.Selection) {
	b.Stats.Mitigations++
	if sel.Level > 1 {
		b.Stats.TransitiveMits++
	}
	victims := b.policy.Victims(sel, b.cfg.Geo.RowsPerBank)
	b.Stats.VictimRefreshes += uint64(len(victims))
	if b.Ledger != nil {
		for _, v := range victims {
			b.Ledger.RecordVictimRefresh(v)
		}
	}
	// Victim refreshes replenish PRAC rows too.
	if b.pracCounts != nil {
		for _, v := range victims {
			b.pracCounts[v] = 0
		}
	}
}

// TotalStats sums the per-bank statistics.
func (d *Device) TotalStats() BankStats {
	var t BankStats
	for _, b := range d.Banks {
		t.Acts += b.Stats.Acts
		t.Alerts += b.Stats.Alerts
		t.Mitigations += b.Stats.Mitigations
		t.TransitiveMits += b.Stats.TransitiveMits
		t.VictimRefreshes += b.Stats.VictimRefreshes
		t.ABOAlerts += b.Stats.ABOAlerts
		t.SAUMBusy += b.Stats.SAUMBusy
	}
	return t
}

// TrackerTableStats sums tracker table occupancy across the banks whose
// tracker implements tracker.TableStats (telemetry gauges). Trackers that do
// not expose occupancy — and wrapped trackers, e.g. under fault injection —
// contribute nothing.
func (d *Device) TrackerTableStats() (live, budget int, spill int64) {
	for _, b := range d.Banks {
		if ts, ok := b.trk.(tracker.TableStats); ok {
			l, bu, s := ts.TableStats()
			live += l
			budget += bu
			spill += s
		}
	}
	return live, budget, spill
}
