// Command perfbench is the repository benchmark. It drives the paper's
// covert-channel and detection drivers and the lruleakd job server from
// outside, checks every output, and prints host-side metrics: the
// end-to-end metrics by default, or with --trace 1 the per-layer
// metrics of a traced run. The last line of standard output is one JSON
// object; the lines before it (prefixed "# ") record the host and run
// context. See README.md for why each workload exists.
//
// Run it through run.sh from the repository root, which builds it from
// source first:
//
//	bash perfbench/run.sh --workload channel --seed 1 --seconds 30 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its driver. Every driver fills
// a run: set-up samples, timed rounds, per-operation latencies, checks,
// and — when traced — per-layer metrics.
var workloads = map[string]func(*run) error{
	"channel":     runChannel,
	"roc":         runROC,
	"jobs-fresh":  runJobsFresh,
	"jobs-repeat": runJobsRepeat,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "channel, roc, jobs-fresh or jobs-repeat")
	seed := fs.Uint64("seed", 1, "workload seed; every driver and job seed derives from it")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload {channel,roc,jobs-fresh,jobs-repeat} --seconds >= 1 --trace {0,1}\n")
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workdir:  *workdir,
		size:     fullSize(),
		goldens:  "testdata",
	}
	r, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r.print(stdout)
	return 0
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	workdir  string
	size     size
	// goldens is the directory holding the repository's pinned
	// outputs (attacksweep.golden, roc.golden).
	goldens string
}

// size fixes the amount of work in one timed round of each workload.
// fullSize is what the benchmark measures; tests shrink it.
type size struct {
	// channel: Figure 4 at figBits x figRepeats for both algorithms,
	// plus the Figure 6 time-sliced sweep over fig6Trs.
	figBits, figRepeats int
	fig6Trs             []uint64
	fig6Measurements    int
	// roc: attacker runs per defense in the ROC sweep (0 = the
	// driver's default, which roc.golden pins).
	rocTrials int
	// jobs: symbols per attack job, jobs per fresh round, and the
	// repeat workload's distinct keys x submissions per key.
	jobSymbols            int
	freshJobs             int
	repeatKeys, repeatDup int
	// setupReps is how many times set-up is repeated (median reported).
	setupReps int
}

func fullSize() size {
	return size{
		figBits: 64, figRepeats: 4,
		fig6Trs: []uint64{2_000_000, 10_000_000}, fig6Measurements: 40,
		jobSymbols: 6, freshJobs: 32,
		repeatKeys: 16, repeatDup: 8,
		setupReps: 3,
	}
}

// execute runs one workload in a fresh scratch directory under the
// configured workdir and removes the directory afterwards.
func execute(cfg config) (*run, error) {
	if _, err := os.Stat(filepath.Join(cfg.goldens, "attacksweep.golden")); err != nil {
		return nil, fmt.Errorf("not a repository checkout (no %s): %w", cfg.goldens, err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{cfg: cfg, tmp: tmp, workers: runtime.GOMAXPROCS(0)}
	if cfg.traced {
		r.tr = newTracer()
		r.layers = map[string]float64{}
	}
	if err := workloads[cfg.workload](r); err != nil {
		return nil, err
	}
	if r.tr != nil {
		dump := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := r.tr.writeJSON(dump); err != nil {
			return nil, err
		}
		r.spanDump = dump
	}
	if len(r.rounds) == 0 {
		return nil, errors.New("no round completed")
	}
	return r, nil
}
