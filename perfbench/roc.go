package main

import (
	"fmt"

	"repro"
	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/perfctr"
	"repro/internal/rng"
	"repro/internal/victim"
	"repro/internal/workload"
)

// The roc workload: lruleak.ROCSweep with the default spec (ttable,
// Tree-PLRU, every defense x 4 attacker runs) against the 132 benign
// Figure 9 suite processes. Nearly all of its host time is the benign
// co-runs — workload generators feeding hierarchy batches — and the
// scheduler is nearly absent.

func runROC(r *run) error {
	sz := r.cfg.size
	spec := lruleak.ROCSpec{Trials: sz.rocTrials}
	golden, err := r.readGolden("roc")
	if err != nil {
		return err
	}
	atGolden := func(seed uint64) string {
		if seed == goldenSeed && sz.rocTrials == 0 {
			return golden
		}
		return ""
	}
	// Set-up is a warm-up sweep at a twentieth of the benign traffic
	// and one attacker run per defense.
	warm := lruleak.ROCSpec{BenignRefs: max(spec.WithDefaults().BenignRefs/20, 1000), Trials: 1}
	for i := 0; i < sz.setupReps; i++ {
		err := r.timeSetup(func() error {
			lruleak.ROCSweep(warm, r.cfg.seed+uint64(i), lruleak.RunOptions{Workers: r.workers})
			return nil
		})
		if err != nil {
			return err
		}
	}

	var ref string
	plain := func(i int) error {
		seed := roundSeed(r.cfg.seed, i)
		opts, reg := r.engineOpts()
		res := lruleak.ROCSweep(spec, seed, opts)
		out := lruleak.RenderROC(res)
		panics := scrape(reg)["engine_cells_panicked_total"]
		r.add("engine.panics", panics)
		r.checkROC(res, out, atGolden(seed), panics)
		if i == 0 {
			ref = out
		}
		return nil
	}
	traced := func(i int) error {
		seed := roundSeed(r.cfg.seed, i)
		res, panics := r.tracedROC(spec, seed)
		out := lruleak.RenderROC(res)
		r.checkROC(res, out, atGolden(seed), panics)
		if i == 0 && out != ref {
			r.attempt(0, "traced ROC sweep diverges from the plain sweep at the same seed")
		}
		return nil
	}
	return r.measure(plain, traced)
}

// checkROC counts the sweep's cells as operations. The sweep's output
// is one report, so a failed check (or a panicked cell) fails every
// cell of the round.
func (r *run) checkROC(res lruleak.ROCResult, rendered, golden string, panics float64) {
	spec := lruleak.ROCSpec{Trials: r.cfg.size.rocTrials}.WithDefaults()
	n := len(spec.Defenses)*len(spec.Victims)*len(spec.Policies)*spec.Trials +
		workload.SuiteSize()*(workload.SuiteSize()-1)/2
	bad := rocProblems(res, rendered, golden)
	if panics > 0 {
		bad = append(bad, fmt.Sprintf("ROC: %v cells panicked", panics))
	}
	if len(bad) > 0 {
		for len(bad) < n {
			bad = append(bad, "ROC: cell of a failed sweep")
		}
	}
	r.attempt(n, bad[:min(len(bad), n)]...)
}

// tracedROC is lruleak.ROCSweep rebuilt from the layers' public calls
// with a span around each: victim.ByName and attack.Run for the
// positives (plus one attack.Profile per defense for the template
// phase alone), the suite generators, hierarchy batches and per-process
// counters for the benign negatives, and the detector's threshold
// sweep. Each benign slice is also replayed through a standalone L1
// with cache.AccessBatch, which times the cache layer on its own.
func (r *run) tracedROC(spec lruleak.ROCSpec, seed uint64) (lruleak.ROCResult, float64) {
	spec = spec.WithDefaults()
	sets := lruleak.SandyBridge().L1Sets
	type posID struct {
		def   attack.Defense
		vname string
		pol   lruleak.ReplacementKind
	}
	var ids []posID
	for _, def := range spec.Defenses {
		for _, vname := range spec.Victims {
			for _, pol := range spec.Policies {
				ids = append(ids, posID{def, vname, pol})
			}
		}
	}
	seeds := engine.Seeds(seed, len(ids)*spec.Trials+1)
	var posJobs []engine.Job[perfctr.Report]
	for _, id := range ids {
		for trial := 0; trial < spec.Trials; trial++ {
			posJobs = append(posJobs, engine.Job[perfctr.Report]{
				Name: fmt.Sprintf("roc/pos/%v/%s/%v/trial=%d", id.def, id.vname, id.pol, trial),
				Seed: seeds[len(posJobs)],
				Run: func(s uint64) perfctr.Report {
					root := r.tr.begin("engine.cell", -1)
					defer r.tr.end(root)
					var v victim.Victim
					var err error
					r.tr.timed("victim.build", root, func() { v, err = victim.ByName(id.vname, sets) })
					if err != nil {
						panic(err)
					}
					cfg := attack.Config{Victim: v, Defense: id.def, Policy: id.pol, Seed: s}
					var res attack.Result
					r.tr.timed("attack.run", root, func() { res = attack.Run(cfg, victim.DemoSecret(v, spec.Symbols, s)) })
					if trial == 0 {
						r.tr.timed("attack.template", root, func() { attack.Profile(cfg) })
					}
					return res.AttackerReport
				},
			})
		}
	}
	opts, reg := r.engineOpts()
	pos := engine.Values(engine.Run(posJobs, opts))

	type pair struct{ a, b int }
	var pairs []pair
	for i := 0; i < workload.SuiteSize(); i++ {
		for j := i + 1; j < workload.SuiteSize(); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	pairSeeds := engine.Seeds(seeds[len(seeds)-1], len(pairs))
	negJobs := make([]engine.Job[[2]perfctr.Report], len(pairs))
	for i, p := range pairs {
		negJobs[i] = engine.Job[[2]perfctr.Report]{
			Name: fmt.Sprintf("roc/neg/pair=%d-%d", p.a, p.b),
			Seed: pairSeeds[i],
			Run: func(s uint64) [2]perfctr.Report {
				return r.benignPair(p.a, p.b, spec.BenignRefs, spec.BenignSlice, s)
			},
		}
	}
	var neg []perfctr.Report
	for _, p := range engine.Values(engine.Run(negJobs, opts)) {
		neg = append(neg, p[0], p[1])
	}
	panics := scrape(reg)["engine_cells_panicked_total"]
	r.add("engine.panics", panics)

	base := detect.ROCBaseThresholds()
	res := lruleak.ROCResult{BenignProcesses: len(neg), Deployed: base.L1CrossEvictionRate}
	per := spec.Trials * len(spec.Victims) * len(spec.Policies)
	for di, def := range spec.Defenses {
		var roc detect.ROC
		r.tr.timed("detect.roc", -1, func() {
			roc = detect.SweepCrossEvictionThreshold(pos[di*per:(di+1)*per], neg, base, spec.Thresholds)
		})
		res.Curves = append(res.Curves, lruleak.DefenseROC{Defense: def, ROC: roc})
	}
	return res, panics
}

// benignTagStride separates the two benign processes' address spaces,
// as the ROC driver does.
const benignTagStride = 1 << 26

// benignPair is the ROC driver's benign co-run: two suite generators
// alternating slices of loads on one shared unprotected hierarchy,
// returning both processes' counter reports.
func (r *run) benignPair(a, b, refs, slice int, seed uint64) [2]perfctr.Report {
	root := r.tr.begin("engine.cell", -1)
	defer r.tr.end(root)
	var gens [2]workload.Generator
	r.tr.timed("workload.build", root, func() {
		gens = [2]workload.Generator{workload.SuiteBenchmark(a, seed), workload.SuiteBenchmark(b, seed^0x9e3779b9)}
	})
	prof := lruleak.SandyBridge()
	h := hier.New(hier.Config{Profile: prof, L1Policy: lruleak.TreePLRU, L2Policy: lruleak.TreePLRU, RNG: rng.New(seed)})
	l1 := cache.New(h.L1().Config())
	slice = max(slice, 1)
	n := min(slice, refs)
	addrs := make([]mem.Addr, n)
	res := make([]hier.Result, n)
	reqs := make([]cache.Request, n)
	cres := make([]cache.Result, n)
	var issued [2]int
	for turn := 0; issued[0] < refs || issued[1] < refs; turn++ {
		p := turn % 2
		n := min(slice, refs-issued[p])
		if n <= 0 {
			continue
		}
		r.tr.timed("workload.next", root, func() {
			for k := 0; k < n; k++ {
				l := gens[p].Next().Addr / 64
				if p == 1 {
					l += benignTagStride
				}
				addrs[k] = mem.Addr{Virt: l * 64, Phys: l * 64, VirtLine: l, PhysLine: l}
			}
		})
		r.tr.timed("hier.load_batch", root, func() { h.LoadBatch(addrs[:n], p, res[:n]) })
		for k, ad := range addrs[:n] {
			reqs[k] = cache.Request{PhysLine: ad.PhysLine, LinearLine: ad.VirtLine, Requestor: p}
		}
		r.tr.timed("cache.access_batch", root, func() { l1.AccessBatch(reqs[:n], cres[:n]) })
		issued[p] += n
	}
	l1s, l2s := h.L1().Stats(), h.L2().Stats()
	r.add("workload.refs", float64(issued[0]+issued[1]))
	r.add("hier.timed_loads", float64(issued[0]+issued[1]))
	r.add("cache.replayed", float64(issued[0]+issued[1]))
	r.add("l1.accesses", float64(l1s.Accesses))
	r.add("l1.misses", float64(l1s.Misses))
	r.add("l2.accesses", float64(l2s.Accesses))
	r.add("l2.misses", float64(l2s.Misses))
	return [2]perfctr.Report{perfctr.Collect(h, 0), perfctr.Collect(h, 1)}
}
