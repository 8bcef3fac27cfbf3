package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/detect"
)

// tinySize shrinks every round to a fraction of a second.
func tinySize() size {
	return size{
		figBits: 8, figRepeats: 1,
		fig6Trs: []uint64{2_000_000}, fig6Measurements: 10,
		rocTrials:  1, // the AUC checks need the full benign population
		jobSymbols: 2, freshJobs: 4,
		repeatKeys: 3, repeatDup: 2,
		setupReps: 1,
	}
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeAllWorkloads runs every workload BENCHMARK.json names, plain
// and traced, at tiny size: each must print exactly the declared
// metrics with their units, attempt operations, and fail none.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			cfg := config{
				workload: wl.Name, seed: 3, budget: 1, traced: traced,
				workdir: t.TempDir(), size: tinySize(), goldens: "../testdata",
			}
			r, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			var out bytes.Buffer
			r.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v\n%s", wl.Name, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (failed_frac must be 0)\n%s",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) printed as %+v", wl.Name, traced, m.Name, m.Unit, got)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestChecksCountCorruptOutputs feeds the checkers a corrupted job
// report and a ROC sweep with a corrupted AUC: both must be counted as
// failed operations, not crash the run.
func TestChecksCountCorruptOutputs(t *testing.T) {
	r := &run{cfg: config{goldens: "../testdata", size: tinySize()}}
	golden, header, defenses, err := r.attackGolden()
	if err != nil {
		t.Fatal(err)
	}
	if bad := attackReportProblems(golden, golden, header, defenses); len(bad) != 0 {
		t.Fatalf("the golden itself fails its check: %v", bad)
	}
	corrupt := strings.Replace(golden, "1.00", "1.01", 1)
	if bad := attackReportProblems(corrupt, golden, header, defenses); len(bad) == 0 {
		t.Error("a report diverging from the golden passed")
	}
	if bad := attackReportProblems(corrupt, "", header, defenses); len(bad) == 0 {
		t.Error("a report with a recovery rate above 1 passed")
	}
	if bad := attackReportProblems(header+"\n", "", header, defenses); len(bad) == 0 {
		t.Error("a truncated report passed")
	}

	res := lruleak.ROCResult{Curves: []lruleak.DefenseROC{
		{Defense: lruleak.AttackDefenses()[0], ROC: detect.ROC{AUC: 1}},
		{Defense: lruleak.AttackDefenses()[4], ROC: detect.ROC{AUC: 0.25}},
	}}
	r.checkROC(res, "", "", 0)
	if r.failed == 0 || r.failed > r.attempted {
		t.Errorf("a DAWG AUC of 0.25 gave %d failed of %d attempted", r.failed, r.attempted)
	}
	r.failed, r.attempted = 0, 0
	res.Curves[1].ROC.AUC = 0
	r.checkROC(res, "report", "golden", 0)
	if r.failed == 0 {
		t.Error("a ROC report diverging from the golden passed")
	}
}

// TestTailQuantile pins the op_tail_ms rule: the highest percentile
// with at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]int{10: 500, 40: 750, 100: 900, 500: 980, 1000: 990, 10000: 999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestMainRejectsOutsideACheckout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	code := mainErr([]string{"--workload", "channel", "--seconds", "1", "--workdir", filepath.Join(dir, "w")}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Errorf("outside a checkout: exit %d, stdout %q", code, stdout.String())
	}
}
