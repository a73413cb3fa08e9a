package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"autorfm/internal/cpu"
	"autorfm/internal/sim"
)

// span is one timed interval of a traced round, in nanoseconds since the
// round began. Spans nest through parent ids; the round itself is span 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced round's spans in memory, to be written out when the
// round ends, and carries the constructor-wrapper counts.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	root  int
	// first holds, per job key, when sim first called the job's stream
	// factory: the end of the job's build (machine reset and LLC prewarm).
	first map[string]time.Time
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), first: map[string]time.Time{}}
	t.root = t.begin("round", 0)
	return t
}

func (t *tracer) begin(name string, parent int) int {
	return t.span(name, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// span records a finished interval, or an open one when end is zero.
func (t *tracer) span(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// instrument is the traced pool's Instrument hook: it wraps the job's
// stream, tracker and policy constructors and notes when the first stream
// is built.
func (t *tracer) instrument(r *round, cfg *sim.Config, key string) {
	if err := instrumentSim(&r.counts, cfg); err != nil {
		r.wrapErr = append(r.wrapErr, fmt.Sprintf("%s: %v", cfg.Workload.Name, err))
		return
	}
	newStream := cfg.NewStream
	cfg.NewStream = func(core int) cpu.Stream {
		if core == 0 {
			t.mu.Lock()
			t.first[key] = time.Now()
			t.mu.Unlock()
		}
		return newStream(core)
	}
}

// jobRun records a simulated job's run phase and, inside it, its build.
func (t *tracer) jobRun(r *round, parent int, key string, start, end time.Time) {
	id := t.span("job", parent, start, end)
	t.mu.Lock()
	f, ok := t.first[key]
	delete(t.first, key)
	t.mu.Unlock()
	if ok {
		t.span("build", id, start, f)
		r.builds = append(r.builds, f.Sub(start))
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
