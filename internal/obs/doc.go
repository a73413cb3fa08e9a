// Package obs is the fleet-wide observability layer of the distributed
// sweep fabric: it sees what internal/telemetry — which observes one
// process — cannot, namely a job's whole lifecycle as it travels between
// machines.
//
// Three surfaces, all optional and all strictly observational (nothing in
// this package may perturb a sim.Result):
//
//   - Span traces (span.go): every job carries a trace of lifecycle events
//     — submit, lease (worker, attempt), heartbeats, execution phases,
//     upload, steal, first-result-wins dedup, lease-expiry requeue — as
//     JSON-lines records (schema "autorfm-spans/v1") and as a merged
//     Perfetto-loadable Chrome trace with one track per worker. Workers
//     buffer spans allocation-free in a fixed-capacity SpanBuffer and ship
//     them with the result upload; the coordinator records its own side of
//     the lifecycle and merges both.
//
//   - The failure flight recorder (flight.go): when a job dies — panic,
//     timeout, ERR cell — the worker dumps a bounded forensic snapshot
//     (the tail of the command-trace ring, the last epoch's gauges,
//     goroutine stacks, runtime stats) as a FlightRecord, uploaded with
//     the failure and persisted content-addressed next to the result
//     store, so the ERR footnote in a report links to its capture.
//
//   - One metrics model (metrics.go, fleet.go): every live gauge has one
//     owner — runner.Pool for a local sweep ("autorfm.sweep"), the
//     dist.Coordinator for the fabric ("autorfm.coord") and its Fleet
//     ("autorfm.fleet": per-worker heartbeat jitter, events/sec, lease age
//     and per-config-family p50/p99 job latency) — and every scrape reads
//     the owner directly: expvars register through Publish, both /metrics
//     endpoints render through WriteProm. The Fleet also backs a stall
//     detector that flags jobs running past their family's rolling p99
//     and asks the offending worker for a pprof capture.
//
// The package sits above internal/telemetry (it reuses the command-trace
// ring, the Chrome trace encoder and the metrics stream) and
// internal/runner, and below internal/dist (which threads
// spans and flight records through the lease protocol); telemetry must
// never import obs.
package obs
