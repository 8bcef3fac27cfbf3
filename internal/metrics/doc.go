// Package metrics is the repository's runtime-telemetry registry.
//
// Registry holds process-lifetime Counters, Gauges and Histograms
// (plus label-vector variants) with lock-free atomic updates, and
// renders them in the Prometheus text exposition format (hand-rolled;
// no dependencies) via WriteText or as an http.Handler — the body of
// lruleakd's GET /metrics. Snapshot reads every series into a flat map
// for callers that want values rather than exposition text.
//
// Cache-counter rates (miss rate, cross-eviction rate) are not defined
// here: they are methods on perfctr.LevelCounters, which the detection
// monitor reads directly.
package metrics
