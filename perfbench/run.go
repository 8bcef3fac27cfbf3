package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// run accumulates one benchmark invocation: set-up samples, the cost of
// each timed round, per-operation latencies, check outcomes and, when
// traced, the per-layer sums.
type run struct {
	cfg     config
	tmp     string // scratch directory, removed when the run ends
	workers int    // engine workers and HTTP clients: GOMAXPROCS

	setup  []time.Duration
	rounds []cost
	ops    []time.Duration

	mu        sync.Mutex // guards attempted, failed, failures, sums, ops
	attempted int
	failed    int
	failures  []string

	// Traced runs only.
	tr       *tracer
	layers   map[string]float64 // per-layer sums, normalised in layerMetrics
	refWall  time.Duration      // wall of the untraced reference round
	paused   cost               // untimed work inside the current round
	rt0, rt1 runtimeSample      // runtime/metrics around the traced rounds
	spanDump string
}

// roundSeed derives round i's driver seed from the workload seed.
// Round 0 runs at the workload seed itself, so --seed 7 reproduces the
// pinned goldens.
func roundSeed(seed uint64, i int) uint64 { return seed + uint64(i)<<20 }

// attempt records n operations of which failed did not pass their
// checks; each failure reason is kept for the report.
func (r *run) attempt(n int, reasons ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += len(reasons)
	r.failures = append(r.failures, reasons...)
}

// op records one operation's latency.
func (r *run) op(d time.Duration) {
	r.mu.Lock()
	r.ops = append(r.ops, d)
	r.mu.Unlock()
}

// add accumulates a per-layer sum (traced runs only).
func (r *run) add(key string, v float64) {
	if r.layers == nil {
		return
	}
	r.mu.Lock()
	r.layers[key] += v
	r.mu.Unlock()
}

// cost is one timed round: host wall time, process CPU time and bytes
// allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

type costSample struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func sampleCost() costSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return costSample{at: time.Now(), cpu: cpu, alloc: s[0].Value.Uint64()}
}

func (a costSample) until(b costSample) cost {
	return cost{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
}

func (c cost) plus(o cost) cost  { return cost{c.wall + o.wall, c.cpu + o.cpu, c.alloc + o.alloc} }
func (c cost) minus(o cost) cost { return cost{c.wall - o.wall, c.cpu - o.cpu, c.alloc - o.alloc} }

// measure runs the timed rounds. Untraced, it runs plain rounds until
// starting another would overrun the budget. Traced, it runs plain
// round 0 once as the untraced reference (for trace.overhead_frac) and
// then traced rounds, starting again from round 0, for the rest of the
// budget. At least one round of each kind always runs.
func (r *run) measure(plain, traced func(i int) error) error {
	start := time.Now()
	body := plain
	if r.tr != nil {
		r.paused = cost{}
		c0 := sampleCost()
		if err := plain(0); err != nil {
			return err
		}
		r.refWall = c0.until(sampleCost()).minus(r.paused).wall
		r.layers = map[string]float64{} // the reference round is not part of the trace
		body = traced
		r.tr.on.Store(true)
		r.rt0 = readRuntime()
		defer func() {
			r.tr.on.Store(false)
			r.rt1 = readRuntime()
		}()
	}
	for i := 0; ; i++ {
		if i > 0 && time.Since(start)+r.rounds[len(r.rounds)-1].wall > r.cfg.budget {
			return nil
		}
		r.paused = cost{}
		c0 := sampleCost()
		if err := body(i); err != nil {
			return err
		}
		r.rounds = append(r.rounds, c0.until(sampleCost()).minus(r.paused))
	}
}

// pause runs f inside a round without charging its cost to the round
// (a restart between a round's operations, say).
func (r *run) pause(f func() error) error {
	c0 := sampleCost()
	err := f()
	r.paused = r.paused.plus(c0.until(sampleCost()))
	return err
}

// timeSetup records one set-up sample around f.
func (r *run) timeSetup(f func() error) error {
	t := time.Now()
	if err := f(); err != nil {
		return err
	}
	r.setup = append(r.setup, time.Since(t))
	return nil
}

// --- statistics ---

func median(xs []float64) float64 { return quantile(xs, 500) }

// quantile is the nearest-rank quantile of xs at pm per mille (xs is
// not modified). Per-mille integers keep the rank exact.
func quantile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(len(s), pm)-1, 0)]
}

// rank is the 1-based nearest rank of the pm per-mille quantile of n
// samples.
func rank(n, pm int) int { return (pm*n + 999) / 1000 }

// tailQuantile picks, in per mille, the highest percentile of the
// ladder that still leaves at least ten of n samples beyond it, or the
// median when n is too small for any.
func tailQuantile(n int) int {
	for _, pm := range []int{999, 990, 980, 950, 900, 750} {
		if n-rank(n, pm) >= 10 {
			return pm
		}
	}
	return 500
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// --- runtime/metrics ---

type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	schedLat        *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(), schedLat: s[3].Value.Float64Histogram(),
	}
}

// schedLatencyQuantile is the q-quantile (upper bucket bound) of the
// goroutine scheduling latencies observed between a and b.
func schedLatencyQuantile(a, b runtimeSample, q float64) float64 {
	counts := make([]uint64, len(b.schedLat.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= want {
			hi := b.schedLat.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.schedLat.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// --- output ---

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are the untraced run's metrics, as BENCHMARK.json
// names them. The operation tail is printed as a context line instead:
// it is too unsteady on a shared host to gate on (see README.md).
func (r *run) endToEndMetrics() map[string]metric {
	wall := make([]float64, len(r.rounds))
	cpu := make([]float64, len(r.rounds))
	alloc := make([]float64, len(r.rounds))
	for i, c := range r.rounds {
		wall[i], cpu[i], alloc[i] = c.wall.Seconds(), c.cpu.Seconds(), float64(c.alloc)/(1<<20)
	}
	ops := r.opMillis()
	return map[string]metric{
		"wall_s":    {median(wall), "s"},
		"setup_s":   {median(seconds(r.setup)), "s"},
		"op_p50_ms": {quantile(ops, 500), "ms"},
		"cpu_s":     {median(cpu), "s"},
		"alloc_mb":  {median(alloc), "MiB"},
	}
}

// opMillis is every operation's latency in milliseconds.
func (r *run) opMillis() []float64 {
	ops := make([]float64, len(r.ops))
	for i, d := range r.ops {
		ops[i] = float64(d.Nanoseconds()) / 1e6
	}
	return ops
}

// print writes the context lines and, last, the result JSON.
func (r *run) print(w io.Writer) {
	cfg := r.cfg
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d budget=%v traced=%v\n", cfg.workload, cfg.seed, cfg.budget, cfg.traced)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	failedFrac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "# ops attempted=%d failed=%d failed_frac=%g rounds=%d ops_per_round=%d setup_reps=%d engine_workers=%d http_clients=%d\n",
		r.attempted, r.failed, failedFrac, len(r.rounds), len(r.ops)/max(len(r.rounds), 1), len(r.setup), r.workers, r.workers)
	walls := make([]string, len(r.rounds))
	for i, c := range r.rounds {
		walls[i] = fmt.Sprintf("%.3f", c.wall.Seconds())
	}
	fmt.Fprintf(w, "# round wall_s %s\n", strings.Join(walls, " "))
	ops := r.opMillis()
	pm := tailQuantile(len(ops))
	fmt.Fprintf(w, "# op_tail_ms=%g: p%g of %d operation samples (%d beyond it)\n",
		quantile(ops, pm), float64(pm)/10, len(ops), len(ops)-rank(len(ops), pm))
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	var ms map[string]metric
	if cfg.traced {
		ms = r.layerMetrics()
		r.tr.printSummary(w)
		fmt.Fprintf(w, "# spans written to %s\n", r.spanDump)
	} else {
		ms = r.endToEndMetrics()
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	fmt.Fprintf(w, "%s\n", out)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary at build time;
// builds outside a git work tree carry none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
