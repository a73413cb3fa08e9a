package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"autorfm/internal/attack"
	"autorfm/internal/dram"
	"autorfm/internal/exp"
	"autorfm/internal/fault"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

// The three workloads. Each runs in one process with one simulation
// worker: on the 2-vCPU host the benchmark was written on, four quick
// sweeps at -j 2 took 12.5-15.3 s (heap 479-607 MB) while two at -j 1 took
// 23.66 and 23.78 s (heap 251 MB both), so a second worker mostly adds
// run-to-run spread.
var workloads = map[string]func(seed uint64, tr *tracer, submit func()) *round{
	"quick-sweep":  quickSweep,
	"long-sim":     longSim,
	"attack-audit": attackAudit,
}

var workloadOrder = []string{"quick-sweep", "long-sim", "attack-audit"}

// round is the outcome of one execution of a workload: its timing, its
// counts, the digest of its outputs and any check that failed.
type round struct {
	wall      time.Duration
	units     []time.Duration // host time of each unit: a simulated job or an attack.Run
	runBusy   time.Duration   // sum of the runner's run phases
	submitted int             // jobs submitted to the runner
	simulated int             // jobs the runner simulated (the rest were cache hits)
	failed    int             // units that returned an error
	events    int64           // events dispatched by simulated jobs
	instr     int64           // instructions retired by simulated jobs
	model     modelCounts
	digest    string
	problems  []string
	// Runtime counters over the round.
	allocBytes, mallocs uint64
	gcCycles            uint32
	heapSys             uint64 // at the round's end

	// Filled by traced rounds only.
	expWall map[string]time.Duration // span of each Experiment.Run
	builds  []time.Duration          // run-phase start to first stream-factory call, per job
	counts  layerCounts
	wrapErr []string // jobs whose constructors could not be wrapped, with why
}

func (r *round) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// modelCounts are simulated statistics summed over a round. A change that
// only speeds the simulator up must leave every one of them identical.
type modelCounts struct {
	cacheHits, cacheMisses, cacheMerged, cachePrefetches, cacheWritebacks uint64
	acts, rowHits, reads, writes, refs, rfms, alerts, pracBackoffs        uint64
	mitigations, victimRefreshes, transitive, aboAlerts                   uint64
	attackActs, attackAlerts, attackFailures                              uint64
}

// addResult accounts one simulated job's Result and checks that every core
// finished its instruction target.
func (r *round) addResult(res sim.Result) {
	m := &r.model
	m.cacheHits += res.Cache.Hits
	m.cacheMisses += res.Cache.Misses
	m.cacheMerged += res.Cache.Merged
	m.cachePrefetches += res.Cache.Prefetches
	m.cacheWritebacks += res.Cache.Writebacks
	m.acts += res.MC.Acts
	m.rowHits += res.MC.RowHits
	m.reads += res.MC.Reads
	m.writes += res.MC.Writes
	m.refs += res.MC.REFs
	m.rfms += res.MC.RFMs
	m.alerts += res.MC.Alerts
	m.pracBackoffs += res.MC.PRACBackoffs
	m.mitigations += res.Dev.Mitigations
	m.victimRefreshes += res.Dev.VictimRefreshes
	m.transitive += res.Dev.TransitiveMits
	m.aboAlerts += res.Dev.ABOAlerts
	r.events += res.Events
	r.instr += res.Instructions

	// A core dispatches a whole stream record (its gap plus one memory
	// instruction) at a time, so it stops up to one record past its target:
	// Result.Instructions is at least, not exactly, cores × target.
	c := res.Config
	finished := len(res.FinishTimes) == c.Cores
	for _, t := range res.FinishTimes {
		finished = finished && t > 0
	}
	if !finished || res.Instructions < int64(c.Cores)*c.InstructionsPerCore {
		r.problemf("%s seed %d: %d instructions retired over %d finished cores, want all %d cores to reach %d",
			c.Workload.Name, c.Seed, res.Instructions, len(res.FinishTimes), c.Cores, c.InstructionsPerCore)
	}
}

// phaseLog collects the runner's run phases. With one worker the calls
// never overlap, but the lock keeps the log correct for any pool.
type phaseLog struct {
	mu     sync.Mutex
	r      *round
	tr     *tracer
	parent func() int // span the run phases belong to
}

func (l *phaseLog) onPhase(key, phase string, start, end time.Time) {
	if phase != runner.PhaseRun {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.units = append(l.r.units, end.Sub(start))
	l.r.runBusy += end.Sub(start)
	if l.tr != nil {
		l.tr.jobRun(l.r, l.parent(), key, start, end)
	}
}

// newPool returns the one-worker pool a sim workload submits to, with the
// run-phase log attached and, when traced, the constructor wrappers.
func newPool(r *round, tr *tracer, parent func() int) *runner.Pool {
	pool := runner.New(1)
	log := &phaseLog{r: r, tr: tr, parent: parent}
	pool.OnJobPhase = log.onPhase
	if tr != nil {
		pool.Instrument = func(cfg *sim.Config, key string) { tr.instrument(r, cfg, key) }
	}
	return pool
}

// recorder is the exp.Runner the quick sweep submits to: it forwards to
// the pool and accounts each distinct job's Result once. Every distinct key
// is simulated exactly once by a fresh pool, so these are the simulated
// jobs.
type recorder struct {
	pool   *runner.Pool
	r      *round
	submit func()
	seen   map[string]bool
}

func (rc *recorder) RunAll(ctx context.Context, cfgs []sim.Config) ([]sim.Result, []error) {
	if rc.submit != nil {
		rc.submit()
		rc.submit = nil
	}
	res, errs := rc.pool.RunAll(ctx, cfgs)
	rc.r.submitted += len(cfgs)
	for i, cfg := range cfgs {
		key := cfg.Key()
		if rc.seen[key] {
			continue
		}
		rc.seen[key] = true
		if errs[i] != nil {
			rc.r.failed++
			rc.r.problemf("job %s: %v", cfg.Workload.Name, errs[i])
			continue
		}
		rc.r.addResult(res[i])
	}
	return res, errs
}

// quickSweep regenerates every registered experiment at exp.Quick() scale
// through one shared pool, as `autorfm-bench -exp all -scale quick -j 1`
// does. The digest covers the report bytes that command writes with
// -report.
func quickSweep(seed uint64, tr *tracer, submit func()) *round {
	r := &round{expWall: map[string]time.Duration{}}
	curExp := 0
	pool := newPool(r, tr, func() int { return curExp })
	rc := &recorder{pool: pool, r: r, seen: map[string]bool{}}
	sc := exp.Quick()
	sc.Seed = seed
	// The command line always sets the fault seed (default: the seed), which
	// gives the fault experiment's clean scenario a job of its own.
	sc.Fault = fault.Config{Seed: seed}
	sc.Pool = rc
	experiments := exp.All()

	var report []byte
	var start time.Time
	rc.submit = func() {
		if submit != nil {
			submit()
		}
		start = time.Now()
	}
	for _, e := range experiments {
		t := time.Now()
		if tr != nil {
			curExp = tr.begin("exp."+e.ID, tr.root)
		}
		res, err := e.Run(sc)
		if tr != nil {
			tr.end(curExp)
			r.expWall[e.ID] = time.Since(t)
		}
		if err != nil {
			r.problemf("%s: %v", e.ID, err)
			continue
		}
		for _, f := range res.Failures {
			r.problemf("%s: %s", e.ID, f)
		}
		report = fmt.Appendf(report, "%s\n", res)
	}
	r.wall = time.Since(start)
	hits, misses := pool.CacheStats()
	r.simulated = misses
	if misses != len(rc.seen) || hits+misses != r.submitted {
		r.problemf("runner accounting: %d simulated + %d hits, but %d distinct of %d submitted jobs",
			misses, hits, len(rc.seen), r.submitted)
	}
	if ev := pool.SimulatedEvents(); ev != r.events {
		r.problemf("runner counted %d events, results hold %d", ev, r.events)
	}
	sum := sha256.Sum256(report)
	r.digest = hex.EncodeToString(sum[:])
	return r
}

// longSim runs the paper's proposed design — AutoRFM-4 with Rubix mapping,
// the MINT tracker and Fractal Mitigation — on all 21 Table V workloads ×
// 5 seeds at 1M instructions per core: 105 distinct jobs, no cache hits.
func longSim(seed uint64, tr *tracer, submit func()) *round {
	r := &round{}
	var cfgs []sim.Config
	for _, p := range workload.Profiles() {
		for k := uint64(0); k < 5; k++ {
			cfgs = append(cfgs, sim.Config{
				Workload:            p,
				InstructionsPerCore: 1_000_000,
				Mode:                dram.ModeAutoRFM,
				TH:                  4,
				Mapping:             "rubix",
				Tracker:             "mint",
				Policy:              "fractal",
				Seed:                mix(seed, k),
			})
		}
	}
	parent := 0
	if tr != nil {
		parent = tr.root
	}
	pool := newPool(r, tr, func() int { return parent })
	if submit != nil {
		submit()
	}
	start := time.Now()
	res, errs := pool.RunAll(context.Background(), cfgs)
	r.wall = time.Since(start)
	r.submitted = len(cfgs)
	_, r.simulated = pool.CacheStats()
	h := sha256.New()
	for i := range cfgs {
		if errs[i] != nil {
			r.failed++
			r.problemf("job %s seed %d: %v", cfgs[i].Workload.Name, cfgs[i].Seed, errs[i])
			continue
		}
		r.addResult(res[i])
		b, err := json.Marshal(res[i])
		if err != nil {
			r.problemf("encode result: %v", err)
		}
		h.Write(b)
	}
	if r.simulated != len(cfgs) {
		r.problemf("runner simulated %d of %d distinct jobs", r.simulated, len(cfgs))
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r
}

// The attack audit's grid: 7 trackers × 3 policies × 5 patterns = 105
// attack.Run calls, so the 90th percentile of run time has ten samples
// beyond it.
var (
	auditTrackers = []string{"mint", "pride", "mithril", "graphene", "twice", "parfm", "para"}
	auditPolicies = []string{"fractal", "recursive", "baseline"}
)

const (
	auditActs = 1_500_000 // attacker activations per run
	auditTH   = 4
	auditTRHD = 74 // MINT-4 + Fractal's tolerated threshold (Table VI)
)

// auditPatterns returns the five attack patterns, placed from seed. Each
// call builds fresh patterns: the fuzzed one carries state.
func auditPatterns(seed uint64) []attack.Pattern {
	row := func(k uint64, span uint32) uint32 {
		const rows, margin = 128 * 1024, 4096
		return margin + uint32(mix(seed, 100+k)%uint64(rows-2*margin-span))
	}
	return []attack.Pattern{
		attack.HalfDouble(row(0, 0)),
		attack.DoubleSided(row(1, 0)),
		attack.Circular(row(2, 4*4), 4),
		attack.ManySided(row(3, 8*8), 8),
		attack.Fuzzed(row(4, 8*4), 8, mix(seed, 105)),
	}
}

// attackAudit drives attack.Run over the tracker × policy × pattern grid.
// It exercises the DRAM bank and ledger, trackers and mitigation policies
// at attacker rate, with no core, cache, controller or event queue.
func attackAudit(seed uint64, tr *tracer, submit func()) *round {
	r := &round{}
	if tr != nil {
		auditCounts = layerCounts{}
	}
	h := sha256.New()
	var start time.Time
	i := uint64(0)
	for _, trk := range auditTrackers {
		for _, pol := range auditPolicies {
			for _, pat := range auditPatterns(seed) {
				cfg := attack.Config{TH: auditTH, Policy: pol, Tracker: trk, TRHD: auditTRHD,
					Acts: auditActs, Seed: mix(seed, 200+i)}
				i++
				if tr != nil {
					registerAuditWrappers()
					cfg.Tracker, cfg.Policy = countedPrefix+trk, countedPrefix+pol
				}
				if submit != nil {
					submit()
					submit = nil
				}
				if start.IsZero() {
					start = time.Now()
				}
				t := time.Now()
				rep, err := attack.Run(cfg, pat)
				d := time.Since(t)
				r.units = append(r.units, d)
				if tr != nil {
					tr.span(trk+"/"+pol+"/"+pat.Name, tr.root, t, t.Add(d))
				}
				if err != nil {
					r.failed++
					r.problemf("attack %s/%s/%s: %v", trk, pol, pat.Name, err)
					continue
				}
				m := &r.model
				m.attackActs += rep.Acts
				m.attackAlerts += rep.Alerts
				m.attackFailures += rep.Failures
				m.mitigations += rep.Mitigations
				m.victimRefreshes += rep.Refreshes
				m.transitive += rep.Transitive
				if rep.Acts != auditActs {
					r.problemf("attack %s/%s/%s: %d activations, want %d", trk, pol, pat.Name, rep.Acts, auditActs)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					r.problemf("encode report: %v", err)
				}
				h.Write(b)
			}
		}
	}
	r.wall = time.Since(start)
	r.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		r.counts = auditCounts
	}
	return r
}

// auditCounts is where the counted.* registry wrappers record. The registry
// is process-wide, so the wrappers are registered once, on the first traced
// audit, and that round's counts are read from here.
var (
	auditCounts     layerCounts
	auditRegistered sync.Once
)

func registerAuditWrappers() {
	auditRegistered.Do(func() { registerCounted(&auditCounts, auditTrackers, auditPolicies) })
}

// mix derives the k-th input seed from the benchmark seed (SplitMix64).
func mix(seed, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (k+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
