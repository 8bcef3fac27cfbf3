package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// TestPooledTelemetryCountsCells runs several grids over one
// instrumented pool (run under -race in CI) and asserts the lifecycle
// counters reconcile exactly with the results: every cell is
// dispatched and completed, the wall histogram saw every cell, the
// load gauges return to zero, and pooled workspaces registered reuse.
func TestPooledTelemetryCountsCells(t *testing.T) {
	reg := metrics.NewRegistry()
	tel := NewTelemetry(reg)
	pool := NewPoolWithTelemetry(4, tel)
	defer pool.Close()

	total := 0
	for run := 0; run < 3; run++ {
		jobs := make([]Job[int], 24)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Name: fmt.Sprintf("run%d/cell%d", run, i),
				Seed: uint64(i),
				RunW: func(seed uint64, ws *Workspace) int {
					n := ws.Get("scratch", func() any { return new(int) }).(*int)
					*n++
					return int(seed) + *n
				},
			}
		}
		results := Run(jobs, Options{Pool: pool})
		if len(results) != len(jobs) {
			t.Fatalf("run %d: %d results for %d jobs", run, len(results), len(jobs))
		}
		total += len(results)
	}

	es := reg.Snapshot()
	if got := es["engine_cells_dispatched_total"]; got != float64(total) {
		t.Errorf("dispatched = %v, want %d", got, total)
	}
	if got := es["engine_cells_completed_total"]; got != float64(total) {
		t.Errorf("completed = %v, want %d", got, total)
	}
	if got := es["engine_cell_wall_seconds.count"]; got != float64(total) {
		t.Errorf("wall histogram count = %v, want %d", got, total)
	}
	for _, zero := range []string{"engine_cells_panicked_total", "engine_cells_skipped_total",
		"engine_queue_depth", "engine_workers_busy"} {
		if es[zero] != 0 {
			t.Errorf("%s = %v, want 0", zero, es[zero])
		}
	}
	// 72 cells over persistent workers: every Get after a worker's first
	// is a reuse hit, so misses = distinct workers that ran a cell —
	// between 1 and pool.Workers() depending on how the queue drained.
	reuse := es["engine_workspace_reuse_total"]
	if misses := float64(total) - reuse; misses < 1 || misses > float64(pool.Workers()) {
		t.Errorf("workspace reuse = %v (misses %v), want misses in [1, %d]", reuse, misses, pool.Workers())
	}
}

// Skipped cells are accounted as skips, never as dispatches, and the
// queue gauge still drains to zero.
func TestTelemetryCountsSkips(t *testing.T) {
	reg := metrics.NewRegistry()
	tel := NewTelemetry(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every cell is skipped

	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = Job[int]{Name: fmt.Sprintf("cell%d", i), Run: func(uint64) int { return 0 }}
	}
	results := Run(jobs, Options{Workers: 2, Context: ctx, Telemetry: tel})
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("cell %s ran after cancel", r.Name)
		}
	}

	es := reg.Snapshot()
	if es["engine_cells_skipped_total"] != 10 || es["engine_cells_dispatched_total"] != 0 {
		t.Errorf("skipped=%v dispatched=%v, want 10/0",
			es["engine_cells_skipped_total"], es["engine_cells_dispatched_total"])
	}
	if es["engine_queue_depth"] != 0 {
		t.Errorf("queue depth = %v, want 0", es["engine_queue_depth"])
	}
}

// Panicking cells land in the panicked counter; completed counts only
// clean cells.
func TestTelemetryCountsPanics(t *testing.T) {
	reg := metrics.NewRegistry()
	tel := NewTelemetry(reg)
	jobs := []Job[int]{
		{Name: "ok", Run: func(uint64) int { return 1 }},
		{Name: "boom", Run: func(uint64) int { panic("boom") }},
		{Name: "ok2", Run: func(uint64) int { return 2 }},
	}
	Run(jobs, Options{Workers: 1, ContainPanics: true, Telemetry: tel})

	es := reg.Snapshot()
	if es["engine_cells_panicked_total"] != 1 || es["engine_cells_completed_total"] != 2 {
		t.Errorf("panicked=%v completed=%v, want 1/2",
			es["engine_cells_panicked_total"], es["engine_cells_completed_total"])
	}
	if es["engine_cell_wall_seconds.count"] != 3 {
		t.Errorf("wall histogram count = %v, want 3 (panicked cells still timed)",
			es["engine_cell_wall_seconds.count"])
	}
}
