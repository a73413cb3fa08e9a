package attack

import (
	"fmt"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/mapping"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// Pattern yields the i-th row the attacker activates.
type Pattern struct {
	Name string
	Row  func(i uint64, r *rng.Source) uint32
}

// DoubleSided hammers the two neighbours of victim alternately — the
// classic pattern defining TRH-D.
func DoubleSided(victim uint32) Pattern {
	return Pattern{
		Name: "double-sided",
		Row: func(i uint64, _ *rng.Source) uint32 {
			if i%2 == 0 {
				return victim - 1
			}
			return victim + 1
		},
	}
}

// SingleSided hammers one aggressor row continuously.
func SingleSided(agg uint32) Pattern {
	return Pattern{
		Name: "single-sided",
		Row:  func(uint64, *rng.Source) uint32 { return agg },
	}
}

// Circular activates w unique rows round-robin — (ABCD)^K, the best-case
// pattern against window trackers (Appendix A). Rows are spaced 4 apart so
// their victim zones do not overlap.
func Circular(base uint32, w int) Pattern {
	return Pattern{
		Name: fmt.Sprintf("circular-%d", w),
		Row: func(i uint64, _ *rng.Source) uint32 {
			return base + uint32(i%uint64(w))*4
		},
	}
}

// HalfDouble hammers a single far aggressor continuously; the damage to
// distant rows comes entirely from the defence's own victim refreshes
// (Section V-A / Kogler et al.). The interesting rows are agg±2, agg±3, …
func HalfDouble(agg uint32) Pattern {
	return Pattern{
		Name: "half-double",
		Row:  func(uint64, *rng.Source) uint32 { return agg },
	}
}

// ManySided sweeps n aggressor pairs TRRespass-style.
func ManySided(base uint32, n int) Pattern {
	return Pattern{
		Name: fmt.Sprintf("many-sided-%d", n),
		Row: func(i uint64, _ *rng.Source) uint32 {
			pair := uint32(i/2) % uint32(n)
			side := uint32(i % 2) // 0 → left aggressor, 1 → right
			return base + pair*8 + side*2
		},
	}
}

// DecoyFlood interleaves the victim's aggressors with random decoy rows to
// stress buffered trackers (PrIDE's FIFO) into dropping victim samples.
func DecoyFlood(victim uint32, decoys int) Pattern {
	return Pattern{
		Name: "decoy-flood",
		Row: func(i uint64, r *rng.Source) uint32 {
			if i%4 == 0 {
				if i%8 == 0 {
					return victim - 1
				}
				return victim + 1
			}
			return victim + 1000 + uint32(r.Intn(decoys))*4
		},
	}
}

// Config parameterises one audit run.
type Config struct {
	// TH is the mitigation interval (AutoRFMTH / RFMTH).
	TH int
	// Policy selects the registered mitigation policy by name ("fractal",
	// "recursive", "baseline", or any plugin registered with
	// mitigation.Register).
	Policy string
	// Tracker selects the registered tracker by plugin spec, e.g. "mint" or
	// "pride(fifo=8)". Empty means "mint", the paper's representative.
	// Recursive slot reservation follows the policy automatically.
	Tracker string
	// TRHD is the double-sided threshold under audit: the ledger records a
	// failure when any row takes 2×TRHD single-sided damage.
	TRHD uint32
	// Acts is the number of attacker activations to attempt.
	Acts uint64
	// Seed drives the device PRNGs and the pattern's randomness.
	Seed uint64
	// Blocking, if true, models RFM-style blocking mitigation (no SAUM, no
	// alerts); otherwise AutoRFM transparent mitigation is used.
	Blocking bool
}

// Report summarises an audit run.
type Report struct {
	Acts        uint64 // successful attacker activations
	Alerts      uint64 // activations declined by the SAUM
	Mitigations uint64
	Transitive  uint64 // mitigations at level > 1 (recursive chains)
	Refreshes   uint64 // victim refreshes issued by the defence
	Failures    uint64 // rows crossing the threshold (Rowhammer successes)
	MaxDamage   uint32 // worst single-sided damage any row reached
}

// Run drives one bank with the pattern at the attacker's maximum rate —
// one activation per tRC, pausing tRFC for each REF every tREFI — for
// cfg.Acts activations. Only that bank is built (dram.NewBank), so a run
// allocates one audit ledger, not one per bank of the device.
func Run(cfg Config, p Pattern) (Report, error) {
	geo := mapping.Default()
	tm := clk.DDR5()
	dcfg := dram.Config{
		Geo:            geo,
		Timing:         tm,
		Mode:           dram.ModeAutoRFM,
		TH:             cfg.TH,
		Audit:          true,
		AuditThreshold: 2 * cfg.TRHD,
		Seed:           cfg.Seed,
	}
	if cfg.Blocking {
		dcfg.Mode = dram.ModeRFM
	}
	probe, err := mitigation.ByName(cfg.Policy, rng.New(0))
	if err != nil {
		return Report{}, err
	}
	recursive := probe.Recursive()
	trkSel := cfg.Tracker
	if trkSel == "" {
		trkSel = "mint"
	}
	buildTrk, err := tracker.FromSpec(trkSel)
	if err != nil {
		return Report{}, err
	}
	if _, err := buildTrk(tracker.Env{TH: cfg.TH, Recursive: recursive, R: rng.New(0)}); err != nil {
		return Report{}, err
	}
	dcfg.NewPolicy = func(bank int, r *rng.Source) mitigation.Policy {
		pol, err := mitigation.ByName(cfg.Policy, r)
		if err != nil {
			panic(err)
		}
		return pol
	}
	dcfg.NewTracker = func(bank int, r *rng.Source) tracker.Tracker {
		trk, err := buildTrk(tracker.Env{Bank: bank, TH: cfg.TH, Recursive: recursive, R: r})
		if err != nil {
			panic(err)
		}
		return trk
	}

	bank := dram.NewBank(dcfg, 0)
	patRNG := rng.New(cfg.Seed ^ 0xa77ac4)
	// A declined activation wastes its slot: the MC-style retry comes one
	// mitigation time after the slot began, whose tRC the loop has added.
	alertPenalty := tm.MitigationTime(4) - tm.TRC

	now := clk.Tick(0)
	nextREF := tm.TREFI
	var refIdx uint64
	var rep Report
	actsInRFMWindow := 0

	for i := uint64(0); rep.Acts < cfg.Acts; i++ {
		if now >= nextREF {
			refIdx++
			bank.ExecuteREF(refIdx)
			now += tm.TRFC
			nextREF += tm.TREFI
		}
		row := p.Row(i, patRNG)
		res := bank.Activate(now, row)
		now += tm.TRC
		if res.Alert {
			rep.Alerts++
			now += alertPenalty
			continue
		}
		rep.Acts++
		if res.WindowClosed {
			// AutoRFM: mitigation launches at this ACT's precharge.
			bank.StartPendingMitigation(now + tm.TRAS)
		}
		if cfg.Blocking {
			actsInRFMWindow++
			if actsInRFMWindow >= cfg.TH {
				actsInRFMWindow = 0
				bank.ExecuteRFM()
				now += tm.TRFM
			}
		}
	}

	rep.Mitigations = bank.Stats.Mitigations
	rep.Transitive = bank.Stats.TransitiveMits
	rep.Refreshes = bank.Stats.VictimRefreshes
	rep.MaxDamage = bank.Ledger.MaxDamage
	rep.Failures = bank.Ledger.Failures
	return rep, nil
}

// MustRun is Run, panicking on configuration errors.
func MustRun(cfg Config, p Pattern) Report {
	r, err := Run(cfg, p)
	if err != nil {
		panic(err)
	}
	return r
}

// Fuzzed returns a randomised pattern in the spirit of Blacksmith: a small
// set of aggressor rows hammered with random per-row intensities, phases
// and interleavings, re-drawn every "round". The threat model (Section
// II-A) demands security against all access patterns; fuzzing probes the
// corners the structured patterns miss.
func Fuzzed(base uint32, rows int, seed uint64) Pattern {
	state := rng.New(seed)
	weights := make([]int, rows)
	total := 0
	redraw := func() {
		total = 0
		for i := range weights {
			weights[i] = 1 + state.Intn(8)
			total += weights[i]
		}
	}
	redraw()
	return Pattern{
		Name: fmt.Sprintf("fuzzed-%d", rows),
		Row: func(i uint64, r *rng.Source) uint32 {
			if i%4096 == 0 {
				redraw()
			}
			pick := state.Intn(total)
			for j, w := range weights {
				pick -= w
				if pick < 0 {
					return base + uint32(j)*4
				}
			}
			return base
		},
	}
}
