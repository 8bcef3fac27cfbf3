// Package perfctr renders the hardware-performance-counter views used by
// Tables VI and VII: per-process cache references and miss rates at every
// level of the hierarchy, as Linux perf would report them. In the simulator
// the counters are exact (the cache layer attributes every access to a
// requestor id).
package perfctr

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/hier"
)

// LevelCounters is the per-level counter view for one process.
type LevelCounters struct {
	Level    string
	Accesses uint64
	Misses   uint64
	// Evictions counts valid lines this process displaced;
	// CrossEvictions the subset that belonged to another process (the
	// prime-and-probe interference signature the attack monitor
	// thresholds on).
	Evictions      uint64
	CrossEvictions uint64
}

// Add merges another level's counters into l (Level is kept).
func (l *LevelCounters) Add(o LevelCounters) {
	l.Accesses += o.Accesses
	l.Misses += o.Misses
	l.Evictions += o.Evictions
	l.CrossEvictions += o.CrossEvictions
}

// MissRate returns Misses/Accesses (0 when idle).
func (l LevelCounters) MissRate() float64 {
	if l.Accesses == 0 {
		return 0
	}
	return float64(l.Misses) / float64(l.Accesses)
}

// CrossEvictionRate returns CrossEvictions/Accesses (0 when idle): how
// much of the process's reference stream displaces other processes'
// cache lines.
func (l LevelCounters) CrossEvictionRate() float64 {
	if l.Accesses == 0 {
		return 0
	}
	return float64(l.CrossEvictions) / float64(l.Accesses)
}

// Report is the perf view of one process (requestor id) over a run.
type Report struct {
	Requestor int
	L1D       LevelCounters
	L2        LevelCounters
	LLC       LevelCounters
	HasLLC    bool
}

// Collect reads the per-requestor counters out of the hierarchy.
func Collect(h *hier.Hierarchy, requestor int) Report {
	rep := Report{Requestor: requestor}
	rep.L1D = FromStats("L1D", h.L1().RequestorStats(requestor))
	rep.L2 = FromStats("L2", h.L2().RequestorStats(requestor))
	if llc := h.LLC(); llc != nil {
		rep.HasLLC = true
		rep.LLC = FromStats("LLC", llc.RequestorStats(requestor))
	}
	return rep
}

// FromStats converts one cache level's raw counters into the perf
// view. It is exported for attack targets that model a single cache
// level outside a hier.Hierarchy (random fill, DAWG).
func FromStats(level string, s cache.Stats) LevelCounters {
	return LevelCounters{
		Level: level, Accesses: s.Accesses, Misses: s.Misses,
		Evictions: s.Evictions, CrossEvictions: s.CrossEvictions,
	}
}

// FromL1Stats builds the report of a process on a model with a single
// cache level (random fill, DAWG): L1D counters from s, an idle L2.
func FromL1Stats(requestor int, s cache.Stats) Report {
	rep := Report{Requestor: requestor}
	rep.L1D = FromStats("L1D", s)
	rep.L2.Level = "L2"
	return rep
}

// CollectCombined merges the counters of several requestors (Table VII
// reports victim + attacker together during a Spectre run).
func CollectCombined(h *hier.Hierarchy, requestors ...int) Report {
	var rep Report
	rep.Requestor = -1
	rep.L1D.Level, rep.L2.Level, rep.LLC.Level = "L1D", "L2", "LLC"
	for _, r := range requestors {
		one := Collect(h, r)
		rep.L1D.Add(one.L1D)
		rep.L2.Add(one.L2)
		rep.LLC.Add(one.LLC)
		rep.HasLLC = rep.HasLLC || one.HasLLC
	}
	return rep
}

// String renders the report in the Table VI style: each level's miss
// rate as a percentage.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L1D %6.2f%%  L2 %6.2f%%", 100*r.L1D.MissRate(), 100*r.L2.MissRate())
	if r.HasLLC {
		fmt.Fprintf(&b, "  LLC %6.2f%%", 100*r.LLC.MissRate())
	}
	return b.String()
}
