package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"autorfm/internal/runner"
)

var (
	publishMu sync.Mutex
	published = map[string]*atomic.Pointer[func() any]{}
)

// Publish serves read's result as the expvar name, calling read on every
// scrape. expvar panics on a duplicate name, so each name registers once
// per process and later calls re-point it at the new read function (tests
// and restarts construct several owners).
func Publish(name string, read func() any) {
	publishMu.Lock()
	defer publishMu.Unlock()
	cur := published[name]
	if cur == nil {
		cur = new(atomic.Pointer[func() any])
		published[name] = cur
		expvar.Publish(name, expvar.Func(func() any { return (*cur.Load())() }))
	}
	cur.Store(&read)
}

// Metric is one Prometheus metric family: a HELP/TYPE header and its
// samples, rendered in the order given.
type Metric struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one value of a Metric. Labels holds rendered label pairs (see
// label), or "" for an unlabelled sample.
type Sample struct {
	Labels string
	Value  float64
}

// single is a one-sample, unlabelled metric family.
func single(name, typ, help string, v float64) Metric {
	return Metric{Name: name, Type: typ, Help: help, Samples: []Sample{{Value: v}}}
}

var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders one label pair, escaping the value per the exposition
// format.
func label(name, value string) string {
	return name + `="` + promEscaper.Replace(value) + `"`
}

// WriteProm renders metric families in Prometheus text format (version
// 0.0.4), hand-written on the standard library so the fabric stays
// dependency-free. Output is deterministic for a deterministic input.
func WriteProm(w io.Writer, metrics []Metric) error {
	bw := bufio.NewWriter(w) // latches the first write error until Flush
	for _, m := range metrics {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Type)
		for _, s := range m.Samples {
			if s.Labels == "" {
				fmt.Fprintf(bw, "%s %g\n", m.Name, s.Value)
			} else {
				fmt.Fprintf(bw, "%s{%s} %g\n", m.Name, s.Labels, s.Value)
			}
		}
	}
	return bw.Flush()
}

// MetricsHandler serves a Prometheus /metrics endpoint, calling read on
// every scrape.
func MetricsHandler(read func() []Metric) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, read())
	})
}

// SweepSnapshot is a local sweep's progress as rendered under the
// "autorfm.sweep" expvar of autorfm-bench -http.
type SweepSnapshot struct {
	JobsDone  int   `json:"jobs_done"`
	JobsTotal int   `json:"jobs_total"`
	CacheHits int   `json:"cache_hits"`
	Failed    int   `json:"failed"`
	Events    int64 `json:"events"`
	// EventsPerSec is events over the simulation window (SimElapsedMS),
	// not pool lifetime: a resumed sweep's cache/store-hit preload
	// answers jobs without simulating, and counting that wall time (or
	// pretending the preloaded events were just computed) skews the rate.
	EventsPerSec float64 `json:"events_per_sec"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	// SimElapsedMS is the time since the first actual simulation started
	// (0 until one does); see runner.Progress.SimElapsed.
	SimElapsedMS int64 `json:"sim_elapsed_ms"`
	ETAMS        int64 `json:"eta_ms"`
}

// Sweep converts a pool's progress into its published form.
func Sweep(p runner.Progress) SweepSnapshot {
	s := SweepSnapshot{
		JobsDone:     p.Done,
		JobsTotal:    p.Total,
		CacheHits:    p.CacheHits,
		Failed:       p.Failed,
		Events:       p.Events,
		ElapsedMS:    p.Elapsed.Milliseconds(),
		SimElapsedMS: p.SimElapsed.Milliseconds(),
		ETAMS:        p.ETA.Milliseconds(),
	}
	if sec := p.SimElapsed.Seconds(); sec > 0 {
		s.EventsPerSec = float64(p.Events) / sec
	}
	return s
}

// Metrics renders the snapshot as Prometheus metric families — the body
// of autorfm-bench's /metrics endpoint.
func (s SweepSnapshot) Metrics() []Metric {
	return []Metric{
		single("autorfm_sweep_jobs_done", "gauge", "Jobs completed so far (including cache hits).", float64(s.JobsDone)),
		single("autorfm_sweep_jobs_total", "gauge", "Jobs in the sweep.", float64(s.JobsTotal)),
		single("autorfm_sweep_cache_hits", "gauge", "Jobs served from the singleflight cache or resume checkpoint.", float64(s.CacheHits)),
		single("autorfm_sweep_failed", "gauge", "Jobs that produced ERR cells.", float64(s.Failed)),
		single("autorfm_sweep_events_total", "counter", "Simulated events across completed jobs.", float64(s.Events)),
		single("autorfm_sweep_events_per_sec", "gauge", "Simulated-event rate over the simulation window (cache hits excluded).", s.EventsPerSec),
		single("autorfm_sweep_elapsed_ms", "gauge", "Wall time since the sweep started.", float64(s.ElapsedMS)),
		single("autorfm_sweep_eta_ms", "gauge", "Estimated wall time to completion.", float64(s.ETAMS)),
	}
}
