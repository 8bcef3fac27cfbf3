package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// The channel workload: Figure 4's Tr x Ts x d grid for both
// algorithms under SMT on Sandy Bridge, plus a small Figure 6
// time-sliced sweep so both scheduler modes run. Its host time is
// scheduler goroutine handoffs plus the L1-hit hierarchy path; it
// builds no workload generators or victims and uses no HTTP or store.

var channelAlgs = []core.Algorithm{lruleak.Alg1SharedMemory, lruleak.Alg2NoSharedMemory}

// channelOut is one round's driver outputs.
type channelOut struct {
	fig4 []lruleak.Figure4Point
	fig6 []lruleak.Figure6Point
}

func runChannel(r *run) error {
	sz := r.cfg.size
	prof := lruleak.SandyBridge()
	// Set-up is a warm-up grid through the same drivers at the
	// lightest per-cell cost, so lazy initialisation and the heap's
	// growth are paid before the first timed round.
	for i := 0; i < sz.setupReps; i++ {
		err := r.timeSetup(func() error {
			for _, alg := range channelAlgs {
				lruleak.Figure4(prof, alg, 8, 1, r.cfg.seed+uint64(i), lruleak.RunOptions{Workers: r.workers})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	var ref channelOut
	plain := func(i int) error {
		seed := roundSeed(r.cfg.seed, i)
		// A panicked cell needs no count here: it comes back as a zero
		// value, which fails checkChannel.
		opts, _ := r.engineOpts()
		var out channelOut
		for _, alg := range channelAlgs {
			out.fig4 = append(out.fig4, lruleak.Figure4(prof, alg, sz.figBits, sz.figRepeats, seed, opts)...)
		}
		out.fig6 = lruleak.Figure6(prof, sz.fig6Trs, sz.fig6Measurements, seed, opts)
		r.checkChannel(out, prof.L1Ways, sz.fig6Trs)
		if i == 0 {
			ref = out
		}
		return nil
	}
	traced := func(i int) error {
		out := r.tracedChannel(prof, roundSeed(r.cfg.seed, i))
		r.checkChannel(out, prof.L1Ways, sz.fig6Trs)
		if i == 0 {
			r.compareChannel(ref, out)
		}
		return nil
	}
	return r.measure(plain, traced)
}

// engineOpts returns the options for one driver call: one engine
// worker per core, panics contained (a crashing cell yields a zero
// value that fails its output check instead of aborting the run), each
// cell's host wall time recorded as one operation, and the engine's
// counters registered on a private registry.
func (r *run) engineOpts() (lruleak.RunOptions, *metrics.Registry) {
	reg := metrics.NewRegistry()
	return lruleak.RunOptions{
		Workers:       r.workers,
		ContainPanics: true,
		Telemetry:     engine.NewTelemetry(reg),
		Progress: func(ev lruleak.JobEvent) {
			r.op(ev.Wall)
			r.add("engine.busy_s", ev.Wall.Seconds())
			r.add("engine.cells", 1)
		},
	}, reg
}

// scrape reads a registry's series the way a /metrics client would.
func scrape(reg *metrics.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WriteText(&b) // writes to a buffer cannot fail
	return parseMetrics(b.String())
}

// tracedChannel runs the same grids as the plain round, but each cell
// is rebuilt here from the layers' public calls — core.NewSetupW, then
// sched.Machine.Run over the setup's sender and receiver programs, then
// the cell's decode — with a span around each. After every machine run
// it replays the same number of hierarchy loads on the cell's lines
// with no scheduler in between, which separates handoff cost from
// simulation cost (sched.overhead_share).
func (r *run) tracedChannel(prof lruleak.Profile, seed uint64) channelOut {
	sz := r.cfg.size
	var out channelOut
	for _, alg := range channelAlgs {
		var jobs []engine.Job[lruleak.Figure4Point]
		for _, tr := range []uint64{600, 1000, 3000} {
			for _, ts := range []uint64{4500, 6000, 12000, 30000} {
				for d := 1; d <= prof.L1Ways; d++ {
					cfg := core.Config{Profile: prof, Algorithm: alg, Mode: sched.SMT, Tr: tr, Ts: ts, D: d}
					jobs = append(jobs, engine.Job[lruleak.Figure4Point]{
						Name: fmt.Sprintf("fig4/tr=%d/ts=%d/d=%d", tr, ts, d),
						Seed: seed + ts + tr + uint64(d),
						RunW: func(s uint64, ws *engine.Workspace) lruleak.Figure4Point {
							c := cfg
							c.Seed = s
							return r.fig4Cell(c, sz.figBits, sz.figRepeats, ws)
						},
					})
				}
			}
		}
		opts, reg := r.engineOpts()
		out.fig4 = append(out.fig4, engine.Values(engine.Run(jobs, opts))...)
		r.add("engine.panics", scrape(reg)["engine_cells_panicked_total"])
	}
	var jobs []engine.Job[lruleak.Figure6Point]
	for _, bit := range []byte{0, 1} {
		for _, tr := range sz.fig6Trs {
			for d := 1; d <= prof.L1Ways; d++ {
				cfg := core.Config{Profile: prof, Algorithm: lruleak.Alg1SharedMemory, Mode: sched.TimeSliced, Tr: tr, Ts: 1 << 62, D: d}
				jobs = append(jobs, engine.Job[lruleak.Figure6Point]{
					Name: fmt.Sprintf("fig6/bit=%d/tr=%d/d=%d", bit, tr, d),
					Seed: seed + tr + uint64(d) + uint64(bit)<<32,
					RunW: func(s uint64, ws *engine.Workspace) lruleak.Figure6Point {
						c := cfg
						c.Seed = s
						return r.fig6Cell(c, bit, sz.fig6Measurements, ws)
					},
				})
			}
		}
	}
	opts, reg := r.engineOpts()
	out.fig6 = engine.Values(engine.Run(jobs, opts))
	r.add("engine.panics", scrape(reg)["engine_cells_panicked_total"])
	return out
}

// fig4Cell is lruleak.Figure4's cell (core.Setup.MeasureErrorRate),
// traced.
func (r *run) fig4Cell(cfg core.Config, bits, repeats int, ws *engine.Workspace) lruleak.Figure4Point {
	root := r.tr.begin("engine.cell", -1)
	defer r.tr.end(root)
	s := r.setupCell(cfg, ws, root)
	message := s.RNG.Split().Bits(bits)
	tr := r.runMachine(s, message, 0, s.Cfg.Ts*uint64(bits)*uint64(repeats+1), root)

	var rate float64
	r.tr.timed("core.decode", root, func() {
		raw := tr.RawBits(s.HitMeansOne())
		perBit := float64(s.Cfg.Ts) / float64(s.Cfg.Tr)
		if n := len(tr.Observations); n > 1 {
			achieved := float64(tr.Observations[n-1].Wall-tr.Observations[0].Wall) / float64(n-1)
			if achieved > 0 {
				perBit = float64(s.Cfg.Ts) / achieved
			}
		}
		rate = stats.BestAlignmentErrorRate(message, stats.RunLengthDecode(raw, max(perBit, 1)), 0)
	})
	return lruleak.Figure4Point{
		Tr: cfg.Tr, Ts: cfg.Ts, D: cfg.D,
		RateKbps:  s.Hier.Profile().BitsPerSecond(float64(s.Cfg.Ts)) / 1000,
		ErrorRate: rate,
	}
}

// fig6Cell is lruleak.Figure6's cell (core.Setup.MeasureFractionOnes),
// traced.
func (r *run) fig6Cell(cfg core.Config, bit byte, measurements int, ws *engine.Workspace) lruleak.Figure6Point {
	root := r.tr.begin("engine.cell", -1)
	defer r.tr.end(root)
	s := r.setupCell(cfg, ws, root)
	tr := r.runMachine(s, []byte{bit}, measurements, s.Cfg.Tr*uint64(measurements+2)+10_000_000, root)
	return lruleak.Figure6Point{
		Tr: cfg.Tr, D: cfg.D, SendingBit: bit,
		FractionOnes: tr.FractionOnesAt(s.FixedThreshold(), s.HitMeansOne()),
	}
}

func (r *run) setupCell(cfg core.Config, ws *engine.Workspace, root int) *core.Setup {
	var s *core.Setup
	r.tr.timed("core.setup", root, func() { s = core.NewSetupW(cfg, ws) })
	return s
}

// runMachine is core.Setup.Run with the scheduler run and the hierarchy
// replay timed, and the hierarchy's counters read around the run.
func (r *run) runMachine(s *core.Setup, message []byte, maxSamples int, wall uint64, root int) *core.Trace {
	m := s.NewMachine()
	obs := make([]core.Observation, 0, 1024)
	s.WarmSender()
	m.AddThread("sender", core.ReqSender, s.SenderProgram(message, true))
	m.AddThread("receiver", core.ReqReceiver, s.ReceiverProgram(&obs, maxSamples))

	l1, l2 := s.Hier.L1().Stats(), s.Hier.L2().Stats()
	mode := "smt"
	if s.Cfg.Mode == sched.TimeSliced {
		mode = "tslice"
	}
	r.tr.timed("sched.run."+mode, root, func() { m.Run(wall) })
	dl1, dl2 := s.Hier.L1().Stats(), s.Hier.L2().Stats()
	loads := dl1.Accesses - l1.Accesses

	tr := &core.Trace{Observations: obs, Elapsed: m.Now()}
	tr.Threshold = stats.OtsuThreshold(tr.Latencies())

	lines := append(append([]mem.Addr{s.SenderLine}, s.ReceiverLines...), s.Chaser.Elements()...)
	r.tr.timed("hier.replay", root, func() {
		for k := uint64(0); k < loads; k++ {
			s.Hier.Load(lines[k%uint64(len(lines))], int(k&1))
		}
	})

	r.add("sched."+mode+".accesses", float64(loads))
	r.add("sched.sim_cycles", float64(m.Now()))
	r.add("hier.timed_loads", float64(loads))
	r.add("l1.accesses", float64(loads))
	r.add("l1.misses", float64(dl1.Misses-l1.Misses))
	r.add("l2.accesses", float64(dl2.Accesses-l2.Accesses))
	r.add("l2.misses", float64(dl2.Misses-l2.Misses))
	return tr
}

// compareChannel requires the traced round to reproduce the plain
// round cell for cell: the traced path must measure the same work.
func (r *run) compareChannel(plain, traced channelOut) {
	var bad []string
	for i := range min(len(plain.fig4), len(traced.fig4)) {
		if plain.fig4[i] != traced.fig4[i] {
			bad = append(bad, fmt.Sprintf("traced Figure 4 cell %d diverges: %+v vs %+v", i, traced.fig4[i], plain.fig4[i]))
		}
	}
	for i := range min(len(plain.fig6), len(traced.fig6)) {
		if plain.fig6[i] != traced.fig6[i] {
			bad = append(bad, fmt.Sprintf("traced Figure 6 cell %d diverges: %+v vs %+v", i, traced.fig6[i], plain.fig6[i]))
		}
	}
	r.attempt(0, bad...)
}
