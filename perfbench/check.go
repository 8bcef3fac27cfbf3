package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro"
)

// Output checks. None of them aborts the run: every operation that
// fails its check is counted in the result's "failed" field (and its
// reason printed), so failed/attempted is the run's failed fraction.

// checkChannel counts every Figure 4 and Figure 6 cell as one
// operation. A cell passes when it sits at its grid coordinates (a
// panicked cell comes back as a zero value and does not), its error
// rate or fraction of ones lies in [0,1], and its rate is positive.
func (r *run) checkChannel(out channelOut, ways int, fig6Trs []uint64) {
	var bad []string
	i := 0
	for range channelAlgs {
		for _, tr := range []uint64{600, 1000, 3000} {
			for _, ts := range []uint64{4500, 6000, 12000, 30000} {
				for d := 1; d <= ways; d++ {
					if i >= len(out.fig4) {
						bad = append(bad, fmt.Sprintf("Figure 4 cell %d missing", i))
					} else if p := out.fig4[i]; p.Tr != tr || p.Ts != ts || p.D != d ||
						!(p.RateKbps > 0) || !(p.ErrorRate >= 0 && p.ErrorRate <= 1) {
						bad = append(bad, fmt.Sprintf("Figure 4 cell %d (tr=%d ts=%d d=%d): %+v", i, tr, ts, d, p))
					}
					i++
				}
			}
		}
	}
	n := i
	i = 0
	for _, bit := range []byte{0, 1} {
		for _, tr := range fig6Trs {
			for d := 1; d <= ways; d++ {
				if i >= len(out.fig6) {
					bad = append(bad, fmt.Sprintf("Figure 6 cell %d missing", i))
				} else if p := out.fig6[i]; p.Tr != tr || p.D != d || p.SendingBit != bit ||
					!(p.FractionOnes >= 0 && p.FractionOnes <= 1) {
					bad = append(bad, fmt.Sprintf("Figure 6 cell %d (bit=%d tr=%d d=%d): %+v", i, bit, tr, d, p))
				}
				i++
			}
		}
	}
	r.attempt(n+i, bad...)
}

// rocProblems checks a ROC sweep the way TestROCSweepGoldenPinned does:
// the unprotected baseline is near-perfectly separable (AUC >= 0.9) and
// DAWG, which structurally zeroes cross-evictions, is not separable at
// all (AUC = 0). The rendered report must also match roc.golden when
// the sweep ran at the golden's seed and spec.
func rocProblems(res lruleak.ROCResult, rendered string, golden string) []string {
	var bad []string
	auc := map[string]float64{}
	for _, c := range res.Curves {
		auc[c.Defense.String()] = c.ROC.AUC
	}
	if a, ok := auc["none"]; !ok || !(a >= 0.9) {
		bad = append(bad, fmt.Sprintf("ROC: AUC(none) = %v, want >= 0.9", a))
	}
	if a, ok := auc["dawg"]; !ok || a != 0 {
		bad = append(bad, fmt.Sprintf("ROC: AUC(dawg) = %v, want 0", a))
	}
	if golden != "" && rendered != golden {
		bad = append(bad, "ROC: report at the golden seed diverges from testdata/roc.golden")
	}
	return bad
}

// attackReportProblems checks one rendered attack-sweep report (a job
// report): the golden's header, one row per defense in the sweep's
// order, and recovery rates in [0,1]. A non-empty golden requires the
// report to match it byte for byte.
func attackReportProblems(report, golden, header string, defenses []string) []string {
	if golden != "" {
		if report != golden {
			return []string{"attack report diverges from testdata/attacksweep.golden"}
		}
		return nil
	}
	lines := strings.Split(strings.TrimSuffix(report, "\n"), "\n")
	if len(lines) != len(defenses)+1 || lines[0] != header {
		return []string{fmt.Sprintf("attack report has %d lines (want %d) or a foreign header", len(lines), len(defenses)+1)}
	}
	var bad []string
	for i, row := range lines[1:] {
		f := strings.Fields(row)
		if len(f) < 6 || f[2] != defenses[i] {
			bad = append(bad, fmt.Sprintf("attack report row %d: %q, want defense %s", i, row, defenses[i]))
			continue
		}
		if rec, err := strconv.ParseFloat(f[5], 64); err != nil || rec < 0 || rec > 1 {
			bad = append(bad, fmt.Sprintf("attack report row %d: recovery %q not in [0,1]", i, f[5]))
		}
	}
	return bad
}

// readGolden loads a pinned output from the repository's testdata.
func (r *run) readGolden(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(r.cfg.goldens, name+".golden"))
	return string(b), err
}

// parseMetrics reads the Prometheus text exposition into a map keyed
// by series (name plus label clause, exactly as written).
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
