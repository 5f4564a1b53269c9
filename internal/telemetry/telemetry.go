// Package telemetry is the streaming observability layer: bounded-memory
// metric aggregation (fixed-capacity sample rings with online summaries,
// P² streaming quantile sketches), a Prometheus-text registry of counter
// and gauge funcs, a length-prefixed CRC-checked append-only
// record log (the WAL idiom backing core's on-disk history log), and an
// HTTP surface serving /metrics, /healthz, and net/http/pprof.
//
// Every aggregate in this package holds O(window) state per metric —
// independent of run length — which is what lets million-period daemon
// runs record live telemetry without unbounded RSS (see DESIGN.md §10).
package telemetry
