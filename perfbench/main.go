// Command perfbench is the repository benchmark: it times the simulator on
// three workloads (quick-sweep, long-sim, attack-audit), checks their
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced round (--trace 1).
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload long-sim --seed 1 --seconds 35 --trace 0
//
// --workload all runs the three in turn. Traced rounds write their spans and
// CPU profile to .bench_build/trace.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"autorfm/internal/exp"
)

// setupProbes is how many times a --trace 0 run measures set-up.
const setupProbes = 21

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "quick-sweep, long-sim, attack-audit, or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Float64("seconds", 35, "measure for about this long: rounds repeat while the next is expected to fit (at least one)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced rounds; 1: per-layer metrics of a traced round")
	probe := fs.Bool("setup-probe", false, "print the time of the first submitted unit and exit (used to measure set-up)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", n, strings.Join(workloadOrder, ", "))
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *probe {
		workloads[names[0]](*seed, nil, func() {
			fmt.Println(time.Now().UnixNano())
			os.Exit(0)
		})
		fmt.Fprintln(os.Stderr, "perfbench: workload submitted no work")
		return 1
	}

	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		o := measure(n, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		fmt.Printf("== %s, seed %d ==\n", n, *seed)
		o.text.print(os.Stdout, "  ")
		fmt.Printf("  output digest: %s\n", o.digest)
		for _, w := range o.unwrapped {
			fmt.Printf("  not wrapped (counted by the profile only): %s\n", w)
		}
		for _, p := range o.problems {
			fmt.Printf("  CHECK FAILED: %s\n", p)
		}
		if len(o.problems) == 0 {
			fmt.Println("  checks: ok")
		}
		out.Correct = out.Correct && len(o.problems) == 0
		out.Attempted += o.attempted
		out.Failed += o.failed
		prefix := ""
		if len(names) > 1 {
			prefix = n + "."
		}
		for _, m := range o.result.list {
			out.Metrics[prefix+m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's measurement: result holds the metrics of the
// JSON line, text everything printed.
type outcome struct {
	result, text      metricSet
	attempted, failed int
	problems          []string
	digest            string
	unwrapped         []string // traced jobs the constructor wrappers skipped, with why
}

// timedRound runs one round after a collection, recording the runtime's
// allocation counters around it.
func timedRound(name string, seed uint64, tr *tracer) *round {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := workloads[name](seed, tr, nil)
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcCycles = after.NumGC - before.NumGC
	r.heapSys = after.HeapSys
	return r
}

func measure(name string, seed uint64, budget time.Duration, traced bool) outcome {
	var o outcome
	var rounds []*round
	if !traced {
		setups, err := probeSetup(name, seed)
		if err != nil {
			o.problems = append(o.problems, err.Error())
		}
		start := time.Now()
		for {
			rounds = append(rounds, timedRound(name, seed, nil))
			el := time.Since(start)
			if el+el/time.Duration(len(rounds)) > budget {
				break
			}
		}
		o.result = endToEnd(name, rounds, setups)
		o.text.list = append(o.text.list, o.result.list...)
	} else {
		base := timedRound(name, seed, nil)
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			o.problems = append(o.problems, fmt.Sprintf("cpu profile: %v", err))
		}
		r := timedRound(name, seed, tr)
		pprof.StopCPUProfile()
		tr.end(tr.root)
		rounds = []*round{base, r}
		if err := writeTrace(name, seed, tr, prof.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace not written: %v\n", err)
		}
		shares, err := profileShares(prof.Bytes())
		if err != nil {
			o.problems = append(o.problems, err.Error())
		}
		o.result = perLayer(r, base, shares)
		o.text = endToEnd(name, []*round{base}, nil)
		o.text.list = append(o.text.list, o.result.list...)
		o.unwrapped = r.wrapErr
	}
	for _, r := range rounds {
		o.attempted += len(r.units)
		o.failed += r.failed
		o.problems = append(o.problems, r.problems...)
		if r.digest != rounds[0].digest {
			o.problems = append(o.problems, fmt.Sprintf("output digest %s differs from the first round's %s", r.digest, rounds[0].digest))
		}
	}
	last := rounds[len(rounds)-1]
	o.text.addNote("peak_heap_mb", float64(last.heapSys)/(1<<20), "MB",
		"HeapSys at the end of the timed phase; too noisy to bound, so alloc_mb is the bounded memory metric")
	o.text.addRatio("failed_frac", float64(o.failed), float64(o.attempted), "ratio", "units")
	if rate, ok := o.text.get("throughput_m_per_s"); ok {
		alias := "sim_minstr_per_s"
		if name == "attack-audit" {
			alias = "attack_macts_per_s"
		}
		o.text.addNote(alias, rate.value, rate.unit, "= throughput_m_per_s")
	}
	o.problems = append(o.problems, checkGolden(name, seed, rounds[0])...)
	o.digest = rounds[0].digest
	return o
}

// probeSetup measures set-up time: it starts the benchmark as a new process
// that exits at its first submitted unit, setupProbes times, and returns
// each time from start to that submission, in seconds.
func probeSetup(name string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up probe: %w", err)
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		b, err := cmd.Output()
		if err != nil {
			return out, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return out, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, float64(ns-t0.UnixNano())/1e9)
	}
	return out, nil
}

// endToEnd computes the end-to-end metrics from untraced rounds.
func endToEnd(name string, rounds []*round, setups []float64) metricSet {
	var m metricSet
	var walls, rates, units, allocs []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		work := float64(r.instr)
		if name == "attack-audit" {
			work = float64(r.model.attackActs)
		}
		rates = append(rates, work/r.wall.Seconds()/1e6)
		units = append(units, durationsMS(r.units)...)
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
	}
	m.addNote("wall_s", median(walls), "s", fmt.Sprintf("median of %d rounds: %s", len(walls), fmt.Sprint(walls)))
	if setups != nil {
		m.addNote("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	}
	what := "simulated instructions of simulated jobs per host second, median of rounds"
	if name == "attack-audit" {
		what = "audited attacker ACTs per host second, median of rounds"
	}
	m.addNote("throughput_m_per_s", median(rates), "M/s", what)
	m.addPercentile("job_p50_ms", units, 0.5, "ms")
	m.addPercentile("job_p90_ms", units, 0.9, "ms")
	m.addNote("alloc_mb", median(allocs), "MB", "heap allocated in the timed phase, median of rounds")
	return m
}

// perLayer computes the per-layer metrics of traced round r; base is the
// untraced round of the same invocation.
func perLayer(r, base *round, prof cpuShares) metricSet {
	var m metricSet
	wall := r.wall.Seconds()
	busy := r.runBusy.Seconds()
	hits := r.submitted - r.simulated
	m.add("runner.submitted", float64(r.submitted), "count")
	m.add("runner.simulated", float64(r.simulated), "count")
	m.addRatio("runner.cache_hit_ratio", float64(hits), float64(r.submitted), "ratio", "jobs")
	m.addNote("runner.run_busy_s", busy, "s", "sum of run phases")
	outside := 0.0
	if r.submitted > 0 {
		outside = wall - busy
	}
	m.addNote("runner.outside_sim_s", outside, "s", "wall_s minus run phases")

	for _, e := range exp.All() {
		m.add("exp."+e.ID+".wall_s", r.expWall[e.ID].Seconds(), "s")
	}

	m.add("sim.events", float64(r.events), "count")
	m.addRatio("sim.ns_per_event", float64(r.runBusy), float64(r.events), "ns", "run-phase ns/events")
	var builds float64
	for _, b := range r.builds {
		builds += b.Seconds()
	}
	m.addPercentile("sim.build_ms_p50", durationsMS(r.builds), 0.5, "ms")
	m.addRatio("sim.build_share", builds, wall, "ratio", "s build/s wall")

	c := r.counts
	behind := func(layer string) (float64, float64) { return prof.wrapped[layer] * prof.cpu, prof.cpu }
	m.add("workload.records", float64(c.records), "count")
	num, den := behind("workload")
	m.addRatio("workload.next_share", num, den, "ratio", "CPU s behind the stream wrapper/CPU s profiled")
	m.add("tracker.activations", float64(c.acts), "count")
	m.add("tracker.selections", float64(c.selects), "count")
	m.addRatio("tracker.select_ok_ratio", float64(c.selectsOK), float64(c.selects), "ratio", "selections")
	num, den = behind("tracker")
	m.addRatio("tracker.share", num, den, "ratio", "CPU s behind the tracker wrapper/CPU s profiled")
	m.add("mitigation.calls", float64(c.polCalls), "count")
	m.add("mitigation.victim_rows", float64(c.victims), "count")
	num, den = behind("mitigation")
	m.addRatio("mitigation.share", num, den, "ratio", "CPU s behind the policy wrapper/CPU s profiled")

	mc := r.model
	for _, x := range []struct {
		name string
		v    uint64
	}{
		{"cache.hits", mc.cacheHits}, {"cache.misses", mc.cacheMisses}, {"cache.merged", mc.cacheMerged},
		{"cache.prefetches", mc.cachePrefetches}, {"cache.writebacks", mc.cacheWritebacks},
		{"memctrl.acts", mc.acts}, {"memctrl.row_hits", mc.rowHits}, {"memctrl.reads", mc.reads},
		{"memctrl.writes", mc.writes}, {"memctrl.refs", mc.refs}, {"memctrl.rfms", mc.rfms},
		{"memctrl.alerts", mc.alerts}, {"memctrl.prac_backoffs", mc.pracBackoffs},
	} {
		m.add(x.name, float64(x.v), "count")
	}
	m.addRatio("memctrl.alert_per_act", float64(mc.alerts), float64(mc.acts), "ratio", "alerts/ACTs")
	for _, x := range []struct {
		name string
		v    uint64
	}{
		{"dram.mitigations", mc.mitigations}, {"dram.victim_refreshes", mc.victimRefreshes},
		{"dram.transitive", mc.transitive}, {"dram.abo_alerts", mc.aboAlerts},
		{"attack.acts", mc.attackActs}, {"attack.alerts", mc.attackAlerts}, {"attack.failures", mc.attackFailures},
	} {
		m.add(x.name, float64(x.v), "count")
	}

	for _, l := range profLayers {
		m.addNote("prof."+l, prof.layer[l], "ratio", fmt.Sprintf("of %d CPU samples", prof.samples))
	}
	m.addNote("runtime.alloc_mb", float64(base.allocBytes)/(1<<20), "MB", "untraced round")
	m.addNote("runtime.mallocs", float64(base.mallocs), "count", "untraced round")
	m.addNote("runtime.gc_cycles", float64(base.gcCycles), "count", "untraced round")
	over := ratio("trace.overhead_frac", wall, base.wall.Seconds(), "ratio", "s traced/s untraced")
	over.value--
	m.list = append(m.list, over)
	return m
}

// writeTrace saves a traced round's spans and CPU profile under
// .bench_build/trace.
func writeTrace(name string, seed uint64, tr *tracer, prof []byte) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}

// golden holds the committed outputs at seed 1: a digest per workload and
// the quick sweep's exact job and event counts.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Digest    string `json:"digest"`
	Events    int64  `json:"events,omitempty"`
	Simulated int    `json:"simulated,omitempty"`
	Hits      int    `json:"hits,omitempty"`
}

const goldenSeed = 1

func checkGolden(name string, seed uint64, r *round) []string {
	if seed != goldenSeed {
		return nil
	}
	var all map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return []string{fmt.Sprintf("golden.json: %v", err)}
	}
	g, ok := all[name]
	if !ok {
		return []string{fmt.Sprintf("golden.json has no entry for %s", name)}
	}
	var p []string
	if r.digest != g.Digest {
		p = append(p, fmt.Sprintf("output digest %s, golden %s", r.digest, g.Digest))
	}
	if g.Events != 0 && (r.events != g.Events || r.simulated != g.Simulated || r.submitted-r.simulated != g.Hits) {
		p = append(p, fmt.Sprintf("%d events, %d simulated, %d cache hits; golden %d, %d, %d",
			r.events, r.simulated, r.submitted-r.simulated, g.Events, g.Simulated, g.Hits))
	}
	return p
}
