package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op, the index of the operation's root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; the run writes them out when it
// ends. It is safe for concurrent use (engine workers record spans in
// parallel).
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enabled reports whether spans are being recorded. A nil tracer (an
// untraced run) and a tracer outside the traced rounds record nothing,
// so code shared by plain and traced rounds pays one check per span.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span caused by parent (-1 for an operation's root) and
// returns its id, or -1 when the tracer is not recording.
func (t *tracer) begin(name string, parent int) int {
	if !t.enabled() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return id
}

// end closes span id and returns its duration (0 for id -1).
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	f()
	return t.end(id)
}

// spanStat aggregates the spans of one name: how many, their summed
// duration, and their self time (duration not covered by child spans).
type spanStat struct {
	n           int
	total, self time.Duration
}

func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanStat{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		d := time.Duration(s.End - s.Start)
		st.n++
		st.total += d
		st.self += d - child[i]
		out[s.Name] = st
	}
	return out
}

// printSummary writes one context line per span name.
func (t *tracer) printSummary(w io.Writer) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "# span %-22s n=%-7d total=%-12v self=%v\n", n, s.n, s.total.Round(time.Microsecond), s.self.Round(time.Microsecond))
	}
}

func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetricNames lists every per-layer metric, in BENCHMARK.json
// order. A layer a workload never calls reads 0 there: that workload
// is the layer's no-change side.
var layerMetricNames = []layerMetric{
	{"workload.build_ms", "ms"}, {"workload.ns_per_ref", "ns"}, {"workload.refs", "count"},
	{"victim.build_ms", "ms"}, {"victim.builds", "count"},
	{"cache.ns_per_access", "ns"}, {"cache.accesses", "count"}, {"cache.miss_ratio", "ratio"},
	{"hier.ns_per_load", "ns"}, {"hier.loads", "count"}, {"hier.l1_miss_ratio", "ratio"}, {"hier.l2_miss_ratio", "ratio"},
	{"sched.run_s", "s"}, {"sched.ns_per_access", "ns"}, {"sched.tslice.ns_per_access", "ns"},
	{"sched.sim_cycles", "cycles"}, {"sched.overhead_share", "ratio"},
	{"core.setup_ms", "ms"}, {"core.cells", "count"},
	{"attack.run_ms", "ms"}, {"attack.template_ms", "ms"}, {"detect.roc_ms", "ms"},
	{"engine.busy_s", "s"}, {"engine.efficiency", "ratio"}, {"engine.cells", "count"}, {"engine.panics", "count"},
	{"service.submit_ms", "ms"}, {"service.report_wait_ms", "ms"}, {"service.queue_wait_ms", "ms"},
	{"service.dedup_hit_ratio", "ratio"}, {"service.store_hit_ratio", "ratio"}, {"service.rejected", "count"},
	{"store.put_ms", "ms"}, {"store.get_ms", "ms"}, {"store.scan_s", "s"}, {"store.bytes", "B"},
	{"runtime.gc_cpu_frac", "ratio"}, {"runtime.sched_latency_p90_us", "us"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics turns the traced run's spans and sums into the per-layer
// metrics. Times are per call (mean over the run's spans of that name),
// counts are per round, and ratios are over the whole traced run.
func (r *run) layerMetrics() map[string]metric {
	st := r.tr.stats()
	rounds := float64(len(r.rounds))
	sum := r.layers
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	meanMs := func(name string) float64 {
		s := st[name]
		return ratio(float64(s.total.Nanoseconds())/1e6, float64(s.n))
	}
	totalNs := func(name string) float64 { return float64(st[name].total.Nanoseconds()) }
	var wall []float64
	for _, c := range r.rounds {
		wall = append(wall, c.wall.Seconds())
	}
	roundWall := median(wall)
	schedRun := totalNs("sched.run.smt") + totalNs("sched.run.tslice")
	cacheAcc := sum["l1.accesses"] + sum["l2.accesses"]

	v := map[string]float64{
		"workload.build_ms":   meanMs("workload.build"),
		"workload.ns_per_ref": ratio(totalNs("workload.next"), sum["workload.refs"]),
		"workload.refs":       sum["workload.refs"] / rounds,
		"victim.build_ms":     meanMs("victim.build"),
		"victim.builds":       float64(st["victim.build"].n) / rounds,
		"cache.ns_per_access": ratio(totalNs("cache.access_batch"), sum["cache.replayed"]),
		"cache.accesses":      cacheAcc / rounds,
		"cache.miss_ratio":    ratio(sum["l1.misses"]+sum["l2.misses"], cacheAcc),
		"hier.ns_per_load":    ratio(totalNs("hier.load_batch")+totalNs("hier.replay"), sum["hier.timed_loads"]),
		"hier.loads":          sum["l1.accesses"] / rounds,
		"hier.l1_miss_ratio":  ratio(sum["l1.misses"], sum["l1.accesses"]),
		"hier.l2_miss_ratio":  ratio(sum["l2.misses"], sum["l2.accesses"]),

		"sched.run_s":                schedRun / 1e9 / rounds,
		"sched.ns_per_access":        ratio(totalNs("sched.run.smt"), sum["sched.smt.accesses"]),
		"sched.tslice.ns_per_access": ratio(totalNs("sched.run.tslice"), sum["sched.tslice.accesses"]),
		"sched.sim_cycles":           sum["sched.sim_cycles"] / rounds,
		"sched.overhead_share":       0,
		"core.setup_ms":              meanMs("core.setup"),
		"core.cells":                 float64(st["core.setup"].n) / rounds,
		"attack.run_ms":              meanMs("attack.run"),
		"attack.template_ms":         meanMs("attack.template"),
		"detect.roc_ms":              meanMs("detect.roc"),

		"engine.busy_s":     sum["engine.busy_s"] / rounds,
		"engine.efficiency": ratio(sum["engine.busy_s"]/rounds, roundWall*float64(r.workers)),
		"engine.cells":      sum["engine.cells"] / rounds,
		"engine.panics":     sum["engine.panics"],

		"service.submit_ms":       meanMs("service.submit"),
		"service.report_wait_ms":  meanMs("service.report_wait"),
		"service.queue_wait_ms":   ratio(sum["service.queue_wait_ms"], sum["service.jobs_timed"]),
		"service.dedup_hit_ratio": ratio(sum["service.dedup_hits"], sum["service.submissions"]),
		"service.store_hit_ratio": ratio(sum["service.store_hits"], sum["service.submissions"]),
		"service.rejected":        sum["service.rejected"],
		"store.put_ms":            meanMs("store.put"),
		"store.get_ms":            meanMs("store.get"),
		"store.scan_s":            meanMs("store.open") / 1e3,
		"store.bytes":             sum["store.bytes"] / rounds,

		"runtime.gc_cpu_frac":          ratio(r.rt1.gcCPU-r.rt0.gcCPU, r.rt1.totalCPU-r.rt0.totalCPU),
		"runtime.sched_latency_p90_us": schedLatencyQuantile(r.rt0, r.rt1, 0.9) * 1e6,
		"runtime.gc_cycles":            float64(r.rt1.gcCycles-r.rt0.gcCycles) / rounds,
		"trace.overhead_frac":          ratio(roundWall, r.refWall.Seconds()) - 1,
	}
	if schedRun > 0 {
		v["sched.overhead_share"] = 1 - totalNs("hier.replay")/schedRun
	}
	out := make(map[string]metric, len(layerMetricNames))
	for _, m := range layerMetricNames {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
