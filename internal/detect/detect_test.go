package detect

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/perfctr"
	"repro/internal/sched"
)

func smtSetup(seed uint64) *core.Setup {
	return core.NewSetup(core.Config{
		Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: seed,
	})
}

func TestVerdictString(t *testing.T) {
	if Benign.String() != "benign" || Suspicious.String() != "suspicious" {
		t.Error("verdict strings")
	}
}

func TestMonitorAbstainsOnTinySamples(t *testing.T) {
	m := NewMonitor(Thresholds{})
	rep := perfctr.Report{}
	rep.L1D.Accesses, rep.L1D.Misses = 10, 10
	if m.Classify(rep) != Benign {
		t.Error("monitor decided on 10 accesses")
	}
}

// The Section VII / Table VI claim, end to end: a miss-rate monitor flags
// the Flush+Reload sender but NOT the LRU-channel sender.
func TestLRUChannelEvadesDetector(t *testing.T) {
	m := NewMonitor(Thresholds{})

	// Flush+Reload (mem) sender: flagged.
	sFR := smtSetup(1)
	baseline.New(baseline.FlushReloadMem, sFR).Run([]byte{1, 0}, true, 600, 1<<40)
	if v := m.ClassifyProcess(sFR.Hier, core.ReqSender); v != Suspicious {
		t.Errorf("F+R sender classified %v; detector should catch it\n%s",
			v, m.Explain(perfctrCollect(sFR)))
	}

	// LRU sender: not flagged, despite actively exfiltrating.
	sLRU := smtSetup(2)
	sLRU.Run([]byte{1, 0}, true, 300, 1<<40)
	if v := m.ClassifyProcess(sLRU.Hier, core.ReqSender); v != Benign {
		t.Errorf("LRU sender classified %v; the channel should be stealthy\n%s",
			v, m.Explain(perfctrCollect(sLRU)))
	}
}

func TestAlg2SenderAlsoEvades(t *testing.T) {
	m := NewMonitor(Thresholds{})
	s := core.NewSetup(core.Config{
		Algorithm: core.Alg2NoSharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, D: 1, Seed: 3,
	})
	s.Run([]byte{1, 0}, true, 300, 1<<40)
	if v := m.ClassifyProcess(s.Hier, core.ReqSender); v != Benign {
		t.Errorf("Algorithm 2 sender classified %v", v)
	}
}

func TestExplainMentionsEvidence(t *testing.T) {
	m := NewMonitor(Thresholds{})
	s := smtSetup(4)
	s.Run([]byte{1}, true, 100, 1<<40)
	out := m.Explain(perfctrCollect(s))
	if !strings.Contains(out, "L1D miss") || !strings.Contains(out, "benign") {
		t.Errorf("explanation incomplete: %q", out)
	}
}

func TestCustomThresholdsRespected(t *testing.T) {
	strict := NewMonitor(Thresholds{MinAccesses: 1, L1MissRate: 0, L2MissRate: 2, MinL2Refs: 1 << 62})
	rep := perfctr.Report{}
	rep.L1D.Accesses, rep.L1D.Misses = 100, 1
	if strict.Classify(rep) != Suspicious {
		t.Error("zero-tolerance L1 threshold did not trip")
	}
}

func perfctrCollect(s *core.Setup) perfctr.Report {
	return perfctr.Collect(s.Hier, core.ReqSender)
}

// Explain's text is part of every attack report, so it is pinned byte
// for byte: each rule cites its name and defining formula, and the
// evidence block adds the cross-eviction figures only when that
// criterion is enabled.
func TestExplainExactText(t *testing.T) {
	report := func(l1Acc, l1Miss, cross, l2Acc, l2Miss uint64) perfctr.Report {
		var r perfctr.Report
		r.L1D.Accesses, r.L1D.Misses, r.L1D.CrossEvictions = l1Acc, l1Miss, cross
		r.L2.Accesses, r.L2.Misses = l2Acc, l2Miss
		return r
	}
	attack, table6 := NewMonitor(AttackThresholds()), NewMonitor(Thresholds{})
	for _, tc := range []struct {
		name string
		m    *Monitor
		rep  perfctr.Report
		want string
	}{
		{"cross-eviction attacker", attack, report(10000, 100, 200, 100, 10),
			"suspicious (L1D cross-eviction rate 2.00% > threshold 0.80% " +
				"[l1d.cross_eviction_rate = l1d.cross_evictions / l1d.accesses]; " +
				"L1D miss 1.00% over 10000 refs, L2 miss 10.00% over 100 refs, " +
				"L1D cross-eviction 2.00% (200 displaced))"},
		{"benign", attack, report(10000, 100, 50, 100, 10),
			"benign (no threshold exceeded; L1D miss 1.00% over 10000 refs, " +
				"L2 miss 10.00% over 100 refs, L1D cross-eviction 0.50% (50 displaced))"},
		{"abstain", attack, report(150, 150, 0, 0, 0),
			"benign (below the 200-access decision floor; L1D miss 100.00% over 150 refs, " +
				"L2 miss 0.00% over 0 refs, L1D cross-eviction 0.00% (0 displaced))"},
		{"cross-eviction rule gated", attack, report(1000, 10, 10, 0, 0),
			"benign (no threshold exceeded; L1D miss 1.00% over 1000 refs, " +
				"L2 miss 0.00% over 0 refs, L1D cross-eviction 1.00% (10 displaced))"},
		{"L1 miss rate", table6, report(1000, 50, 0, 0, 0),
			"suspicious (L1D miss rate 5.00% > threshold 2.00% " +
				"[l1d.miss_rate = l1d.misses / l1d.accesses]; " +
				"L1D miss 5.00% over 1000 refs, L2 miss 0.00% over 0 refs)"},
		{"L2 miss rate", table6, report(1000, 10, 0, 60, 40),
			"suspicious (L2 miss rate 66.67% > threshold 50.00% " +
				"[l2.miss_rate = l2.misses / l2.accesses]; " +
				"L1D miss 1.00% over 1000 refs, L2 miss 66.67% over 60 refs)"},
		{"L2 rule gated", table6, report(1000, 10, 0, 40, 40),
			"benign (no threshold exceeded; L1D miss 1.00% over 1000 refs, " +
				"L2 miss 100.00% over 40 refs)"},
	} {
		if got := tc.m.Explain(tc.rep); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
