package obs

import (
	"sort"
	"time"
)

// WorkerMetrics is the piggyback payload a worker attaches to heartbeat
// requests: cumulative worker-local progress the coordinator differences
// into fleet rates. All fields are optional on the wire (old workers send
// none) and cumulative (so lost heartbeats never lose counts).
type WorkerMetrics struct {
	// Events is the worker's cumulative simulated-event count.
	Events int64 `json:"events,omitempty"`
	// JobsDone is the worker's cumulative completed-job count.
	JobsDone int `json:"jobs_done,omitempty"`
	// Goroutines and HeapBytes are point-in-time runtime stats.
	Goroutines int    `json:"goroutines,omitempty"`
	HeapBytes  uint64 `json:"heap_bytes,omitempty"`
}

// familyLatencyCap bounds the rolling per-family latency window the
// percentiles are computed over.
const familyLatencyCap = 128

// ewmaAlpha weights the newest sample of the smoothed worker gauges.
const ewmaAlpha = 0.3

// MinStallSamples is how many completed jobs a family needs before its
// rolling p99 is trusted by the stall detector.
const MinStallSamples = 8

// WorkerView is one worker's row of the fleet snapshot.
type WorkerView struct {
	Worker string `json:"worker"`
	// LastSeenMS is how long ago the last heartbeat (or lease/upload)
	// arrived.
	LastSeenMS int64 `json:"last_seen_ms"`
	// HeartbeatJitterMS is a smoothed mean absolute deviation between
	// successive heartbeat gaps — a partitioning or overloaded worker
	// shows here before its lease expires.
	HeartbeatJitterMS float64 `json:"heartbeat_jitter_ms"`
	// LeaseAgeMS is the age of the worker's oldest live lease (0 when
	// idle).
	LeaseAgeMS int64 `json:"lease_age_ms"`
	// EventsPerSec is the smoothed simulated-event rate from heartbeat
	// deltas.
	EventsPerSec float64 `json:"events_per_sec"`
	Events       int64   `json:"events"`
	JobsDone     int     `json:"jobs_done"`
	Goroutines   int     `json:"goroutines,omitempty"`
	HeapBytes    uint64  `json:"heap_bytes,omitempty"`
}

// FamilyView is one config family's row of the fleet snapshot. A family
// is a config label minus its workload-independent parts (the dist layer
// derives it from the experiment label), so latency statistics pool
// comparable jobs.
type FamilyView struct {
	Family string `json:"family"`
	Jobs   int    `json:"jobs"`
	P50MS  int64  `json:"latency_p50_ms"`
	P99MS  int64  `json:"latency_p99_ms"`
	Stalls int64  `json:"stalls"`
}

// FleetSnapshot is the point-in-time fleet view rendered under the
// "autorfm.fleet" expvar and the Prometheus /metrics endpoint. Requeues and
// Steals are the coordinator's counters, filled in by its FleetSnapshot.
type FleetSnapshot struct {
	Workers  []WorkerView `json:"workers"`
	Families []FamilyView `json:"families"`
	Requeues int64        `json:"requeues"`
	Steals   int64        `json:"steals"`
}

type workerState struct {
	lastSeen   time.Time
	prevGapMS  float64
	jitterMS   float64 // EWMA of |gap_i - gap_{i-1}|
	hasGap     bool
	leaseAgeMS int64
	rate       float64 // EWMA events/sec
	metrics    WorkerMetrics
	dismissed  bool // told to exit; not live until seen again
}

type familyState struct {
	lat    [familyLatencyCap]float64 // rolling window, ms
	n      int                       // filled entries (<= cap)
	next   int                       // ring cursor
	jobs   int
	stalls int64
}

func (f *familyState) observe(ms float64) {
	f.lat[f.next] = ms
	f.next = (f.next + 1) % familyLatencyCap
	if f.n < familyLatencyCap {
		f.n++
	}
	f.jobs++
}

// quantile computes the q-quantile of the rolling window (nearest-rank).
func (f *familyState) quantile(q float64) float64 {
	if f.n == 0 {
		return 0
	}
	tmp := make([]float64, f.n)
	copy(tmp, f.lat[:f.n])
	sort.Float64s(tmp)
	i := int(q * float64(f.n))
	if i >= f.n {
		i = f.n - 1
	}
	return tmp[i]
}

// Fleet aggregates per-worker and per-config-family gauges from heartbeat
// piggyback payloads and job completions. It is the single owner of each
// worker's last-seen time. A Fleet is a plain value with no lock of its
// own: the coordinator (internal/dist) holds one and drives it under its
// mutex with its clock.
type Fleet struct {
	workers  map[string]*workerState
	families map[string]*familyState
}

// NewFleet returns an empty aggregator.
func NewFleet() *Fleet {
	return &Fleet{workers: map[string]*workerState{}, families: map[string]*familyState{}}
}

// Seen marks worker as alive at now without a heartbeat payload (lease
// grants and uploads also prove liveness).
func (f *Fleet) Seen(worker string, now time.Time) {
	w := f.worker(worker)
	w.lastSeen, w.dismissed = now, false
}

func (f *Fleet) worker(name string) *workerState {
	w := f.workers[name]
	if w == nil {
		w = &workerState{}
		f.workers[name] = w
	}
	return w
}

// Heartbeat records one heartbeat from worker at now: presence, gap
// jitter, the age of its oldest live lease, and (when the worker is new
// enough to send one) the piggyback metrics payload.
func (f *Fleet) Heartbeat(worker string, now time.Time, leaseAge time.Duration, m *WorkerMetrics) {
	w := f.worker(worker)
	if !w.lastSeen.IsZero() {
		gapMS := float64(now.Sub(w.lastSeen)) / float64(time.Millisecond)
		if w.hasGap {
			dev := gapMS - w.prevGapMS
			if dev < 0 {
				dev = -dev
			}
			w.jitterMS = (1-ewmaAlpha)*w.jitterMS + ewmaAlpha*dev
		}
		if m != nil && gapMS > 0 {
			inst := float64(m.Events-w.metrics.Events) / (gapMS / 1000)
			if inst >= 0 {
				if w.rate == 0 {
					w.rate = inst
				} else {
					w.rate = (1-ewmaAlpha)*w.rate + ewmaAlpha*inst
				}
			}
		}
		w.prevGapMS = gapMS
		w.hasGap = true
	}
	w.lastSeen, w.dismissed = now, false
	w.leaseAgeMS = leaseAge.Milliseconds()
	if m != nil {
		w.metrics = *m
	}
}

// Dismiss drops worker from the live count (Live) until it is next seen;
// it stays in the snapshot.
func (f *Fleet) Dismiss(worker string) {
	if w := f.workers[worker]; w != nil {
		w.dismissed = true
	}
}

// Live counts the undismissed workers seen after since.
func (f *Fleet) Live(since time.Time) int {
	n := 0
	for _, w := range f.workers {
		if !w.dismissed && w.lastSeen.After(since) {
			n++
		}
	}
	return n
}

// JobDone records a completed job's end-to-end latency under its config
// family.
func (f *Fleet) JobDone(family string, latency time.Duration) {
	fs := f.families[family]
	if fs == nil {
		fs = &familyState{}
		f.families[family] = fs
	}
	fs.observe(float64(latency) / float64(time.Millisecond))
}

// StallCheck asks whether a lease of family running for age is a stall:
// past the family's rolling p99, with at least MinStallSamples completed
// jobs backing the estimate. When it is, the family's stall counter is
// bumped and true is returned — the caller fires the profile capture.
func (f *Fleet) StallCheck(family string, age time.Duration) bool {
	fs := f.families[family]
	if fs == nil || fs.n < MinStallSamples {
		return false
	}
	p99 := fs.quantile(0.99)
	if p99 <= 0 || float64(age)/float64(time.Millisecond) <= p99 {
		return false
	}
	fs.stalls++
	return true
}

// Snapshot renders the fleet view as of now, workers and families sorted
// by name for deterministic output.
func (f *Fleet) Snapshot(now time.Time) FleetSnapshot {
	var snap FleetSnapshot
	for name, w := range f.workers {
		snap.Workers = append(snap.Workers, WorkerView{
			Worker:            name,
			LastSeenMS:        now.Sub(w.lastSeen).Milliseconds(),
			HeartbeatJitterMS: w.jitterMS,
			LeaseAgeMS:        w.leaseAgeMS,
			EventsPerSec:      w.rate,
			Events:            w.metrics.Events,
			JobsDone:          w.metrics.JobsDone,
			Goroutines:        w.metrics.Goroutines,
			HeapBytes:         w.metrics.HeapBytes,
		})
	}
	sort.Slice(snap.Workers, func(i, j int) bool {
		return snap.Workers[i].Worker < snap.Workers[j].Worker
	})
	for name, fs := range f.families {
		snap.Families = append(snap.Families, FamilyView{
			Family: name,
			Jobs:   fs.jobs,
			P50MS:  int64(fs.quantile(0.50)),
			P99MS:  int64(fs.quantile(0.99)),
			Stalls: fs.stalls,
		})
	}
	sort.Slice(snap.Families, func(i, j int) bool {
		return snap.Families[i].Family < snap.Families[j].Family
	})
	return snap
}

// Metrics renders the snapshot as Prometheus metric families — the body
// of the coordinator's /metrics endpoint.
func (s FleetSnapshot) Metrics() []Metric {
	perWorker := func(name, typ, help string, v func(*WorkerView) float64) Metric {
		m := Metric{Name: name, Type: typ, Help: help}
		for i := range s.Workers {
			m.Samples = append(m.Samples, Sample{label("worker", s.Workers[i].Worker), v(&s.Workers[i])})
		}
		return m
	}
	perFamily := func(name, typ, help string, v func(*FamilyView) float64) Metric {
		m := Metric{Name: name, Type: typ, Help: help}
		for i := range s.Families {
			m.Samples = append(m.Samples, Sample{label("family", s.Families[i].Family), v(&s.Families[i])})
		}
		return m
	}
	latency := Metric{Name: "autorfm_family_latency_ms", Type: "gauge", Help: "Rolling job latency quantiles per config family."}
	for _, f := range s.Families {
		l := label("family", f.Family)
		latency.Samples = append(latency.Samples,
			Sample{l + `,quantile="0.5"`, float64(f.P50MS)},
			Sample{l + `,quantile="0.99"`, float64(f.P99MS)})
	}
	return []Metric{
		single("autorfm_fleet_workers", "gauge", "Number of workers the coordinator has seen.", float64(len(s.Workers))),
		single("autorfm_fleet_requeues_total", "counter", "Leases expired and requeued (crashed or partitioned workers).", float64(s.Requeues)),
		single("autorfm_fleet_steals_total", "counter", "Duplicate leases issued for straggling jobs.", float64(s.Steals)),
		perWorker("autorfm_worker_last_seen_ms", "gauge", "Milliseconds since the worker's last heartbeat.",
			func(w *WorkerView) float64 { return float64(w.LastSeenMS) }),
		perWorker("autorfm_worker_heartbeat_jitter_ms", "gauge", "Smoothed deviation between successive heartbeat gaps.",
			func(w *WorkerView) float64 { return w.HeartbeatJitterMS }),
		perWorker("autorfm_worker_lease_age_ms", "gauge", "Age of the worker's oldest live lease (0 when idle).",
			func(w *WorkerView) float64 { return float64(w.LeaseAgeMS) }),
		perWorker("autorfm_worker_events_per_sec", "gauge", "Smoothed simulated-event rate from heartbeat deltas.",
			func(w *WorkerView) float64 { return w.EventsPerSec }),
		perWorker("autorfm_worker_events_total", "counter", "Cumulative simulated events on the worker.",
			func(w *WorkerView) float64 { return float64(w.Events) }),
		perWorker("autorfm_worker_jobs_done_total", "counter", "Cumulative jobs completed by the worker.",
			func(w *WorkerView) float64 { return float64(w.JobsDone) }),
		perWorker("autorfm_worker_goroutines", "gauge", "Goroutines on the worker at its last heartbeat.",
			func(w *WorkerView) float64 { return float64(w.Goroutines) }),
		perWorker("autorfm_worker_heap_bytes", "gauge", "Heap bytes in use on the worker at its last heartbeat.",
			func(w *WorkerView) float64 { return float64(w.HeapBytes) }),
		perFamily("autorfm_family_jobs_total", "counter", "Jobs completed per config family.",
			func(f *FamilyView) float64 { return float64(f.Jobs) }),
		latency,
		perFamily("autorfm_family_stalls_total", "counter", "Jobs flagged past the family's rolling p99.",
			func(f *FamilyView) float64 { return float64(f.Stalls) }),
	}
}
