package service

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro"
	"repro/internal/replacement"
	"repro/internal/transport"
	"repro/internal/transport/codec"
	"repro/internal/victim"
)

// FieldError locates one validation failure in the submitted spec.
type FieldError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Message }

// errs collects field errors during compilation.
type errs struct{ list []FieldError }

func (e *errs) add(field, format string, args ...any) {
	e.list = append(e.list, FieldError{Field: field, Message: fmt.Sprintf(format, args...)})
}

// maxDeadlineMS is the largest deadline_ms that fits a time.Duration.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// compile validates a submitted spec and resolves it onto the root
// package's sweep types. It is the daemon's line of defense against
// the constructor panics the one-shot CLIs are allowed to die on
// (cache.New on a non-power-of-two set count or zero ways,
// stats.NewHistogram): every name and every numeric bound is checked
// here, with a field-level message, before any simulator object
// exists. A non-empty error list means a 400 — the spec never reaches
// the engine.
func compile(sp Spec) (*compiledSpec, []FieldError) {
	var e errs
	c := &compiledSpec{kind: sp.Kind, seed: sp.Seed}
	switch {
	case sp.DeadlineMS < 0:
		e.add("deadline_ms", "must be >= 0 (0 = no per-job deadline)")
	case sp.DeadlineMS > maxDeadlineMS:
		// Larger values overflow time.Duration into a negative deadline,
		// which would run the job with no deadline at all.
		e.add("deadline_ms", "must be <= %d", maxDeadlineMS)
	default:
		c.deadline = time.Duration(sp.DeadlineMS) * time.Millisecond
	}

	switch sp.Kind {
	case KindAttack:
		if sp.Stream != nil || sp.ROC != nil {
			e.add("kind", "kind %q takes only the %q section", sp.Kind, sp.Kind)
		}
		var a AttackSpec
		if sp.Attack != nil {
			a = *sp.Attack
		}
		c.attack = compileAttack(a, &e)
	case KindStream:
		if sp.Attack != nil || sp.ROC != nil {
			e.add("kind", "kind %q takes only the %q section", sp.Kind, sp.Kind)
		}
		var s StreamSpec
		if sp.Stream != nil {
			s = *sp.Stream
		}
		c.stream = compileStream(s, &e)
	case KindROC:
		if sp.Attack != nil || sp.Stream != nil {
			e.add("kind", "kind %q takes only the %q section", sp.Kind, sp.Kind)
		}
		var r ROCSpec
		if sp.ROC != nil {
			r = *sp.ROC
		}
		c.roc = compileROC(r, &e)
	default:
		e.add("kind", "unknown kind %q (valid: %s)", sp.Kind, strings.Join(Kinds(), ", "))
	}
	if len(e.list) > 0 {
		return nil, e.list
	}
	return c, nil
}

// nonNegative bounds the per-cell cost knobs: negative values are
// nonsense and huge ones would let one spec monopolize the daemon.
func nonNegative(e *errs, field string, v, max int) {
	if v < 0 {
		e.add(field, "must be >= 0")
	} else if v > max {
		e.add(field, "%d exceeds the service cap of %d", v, max)
	}
}

func compileAttack(a AttackSpec, e *errs) lruleak.AttackSpec {
	out := lruleak.AttackSpec{
		Symbols: a.Symbols, Votes: a.Votes,
		ProfilingRounds: a.ProfilingRounds, Trials: a.Trials,
	}
	for i, name := range a.Policies {
		pol, err := replacement.ParseKind(name)
		if err != nil {
			e.add(fmt.Sprintf("attack.policies[%d]", i), "%v", err)
			continue
		}
		out.Policies = append(out.Policies, pol)
	}
	for i, name := range a.Defenses {
		def, err := lruleak.AttackDefenseByName(name)
		if err != nil {
			e.add(fmt.Sprintf("attack.defenses[%d]", i), "%v", err)
			continue
		}
		out.Defenses = append(out.Defenses, def)
	}
	for i, name := range a.Probes {
		probe, err := lruleak.AttackProbeByName(name)
		if err != nil {
			e.add(fmt.Sprintf("attack.probes[%d]", i), "%v", err)
			continue
		}
		out.Probes = append(out.Probes, probe)
	}
	for i, name := range a.Schedules {
		sched, err := lruleak.AttackScheduleByName(name)
		if err != nil {
			e.add(fmt.Sprintf("attack.schedules[%d]", i), "%v", err)
			continue
		}
		out.Schedules = append(out.Schedules, sched)
	}
	for i, ps := range a.Profiles {
		prof, ok := compileProfile(ps, fmt.Sprintf("attack.profiles[%d]", i), e)
		if !ok {
			continue
		}
		out.Profiles = append(out.Profiles, prof)
	}
	// Victims are validated against every profile geometry they will
	// run on (the sweep pairs each victim with each profile), using the
	// same constructor AttackSweep calls — reused, not reimplemented.
	// When the spec omits victims, the sweep will default to all of
	// them, so the defaults are what must survive the geometry: a legal
	// power-of-two set count can still be too small for a victim
	// (ttable needs 16 sets), and that must be a 400 here, not a panic
	// in the sweep.
	profiles := out.Profiles
	if len(profiles) == 0 {
		profiles = []lruleak.Profile{lruleak.SandyBridge()}
	}
	victims := a.Victims
	defaulted := len(victims) == 0
	if defaulted {
		victims = victim.Names()
	}
	for i, name := range victims {
		field := fmt.Sprintf("attack.victims[%d]", i)
		if defaulted {
			field = "attack.victims"
		}
		for _, prof := range profiles {
			if err := tryVictim(name, prof.L1Sets); err != nil {
				e.add(field, "%q on %s (%d L1 sets): %v", name, prof.Arch, prof.L1Sets, err)
				break
			}
		}
	}
	out.Victims = a.Victims
	nonNegative(e, "attack.symbols", a.Symbols, 1024)
	nonNegative(e, "attack.votes", a.Votes, 1024)
	nonNegative(e, "attack.profilingRounds", a.ProfilingRounds, 1024)
	nonNegative(e, "attack.trials", a.Trials, 1024)
	return out
}

// tryVictim probes a (victim, set count) pairing through the same
// constructor the sweeps use. Some constructors report an impossible
// geometry by panicking (victim.NewTTable on < 16 sets) rather than
// returning an error; here both become a validation error.
func tryVictim(name string, sets int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	_, err = victim.ByName(name, sets)
	return err
}

// compileProfile resolves a named CPU profile and applies the optional
// L1 geometry override, enforcing the invariants cache.New would
// otherwise panic on: a positive power-of-two set count and at least
// one way.
func compileProfile(ps ProfileSpec, field string, e *errs) (lruleak.Profile, bool) {
	prof, err := lruleak.ProfileByName(ps.CPU)
	if err != nil {
		e.add(field+".cpu", "%v", err)
		return prof, false
	}
	ok := true
	if ps.L1Sets != nil {
		if n := *ps.L1Sets; n < 1 || n&(n-1) != 0 {
			e.add(field+".l1Sets", "%d is not a positive power of two", n)
			ok = false
		} else {
			prof.L1Sets = n
		}
	}
	if ps.L1Ways != nil {
		if n := *ps.L1Ways; n < 1 {
			e.add(field+".l1Ways", "%d ways; a cache needs at least 1", n)
			ok = false
		} else {
			prof.L1Ways = n
		}
	}
	return prof, ok
}

func compileStream(s StreamSpec, e *errs) lruleak.StreamSpec {
	out := lruleak.StreamSpec{
		NoisePeriod:  s.NoisePeriod,
		PayloadBytes: s.PayloadBytes,
		FramePayload: s.FramePayload,
	}
	for i, pt := range s.Points {
		field := fmt.Sprintf("stream.points[%d]", i)
		if pt.Tr < 1 {
			e.add(field+".tr", "the receiver period must be >= 1 cycle")
		}
		if pt.Ts < 1 {
			e.add(field+".ts", "the symbol period must be >= 1 cycle")
		}
		out.Points = append(out.Points, lruleak.TrTs{Tr: pt.Tr, Ts: pt.Ts})
	}
	for i, name := range s.Codecs {
		if _, err := codec.ByName(name); err != nil {
			e.add(fmt.Sprintf("stream.codecs[%d]", i), "%v", err)
			continue
		}
		out.Codecs = append(out.Codecs, name)
	}
	for i, lanes := range s.LaneCounts {
		// DefaultLanes panics above 62 usable sets; 0 lanes is no channel.
		if lanes < 1 || lanes > 62 {
			e.add(fmt.Sprintf("stream.laneCounts[%d]", i), "%d lanes; want 1..62 (the usable L1 sets)", lanes)
			continue
		}
		out.LaneCounts = append(out.LaneCounts, lanes)
	}
	for i, n := range s.NoiseThreads {
		if n < 0 || n > 64 {
			e.add(fmt.Sprintf("stream.noiseThreads[%d]", i), "%d noise threads; want 0..64", n)
			continue
		}
		out.NoiseThreads = append(out.NoiseThreads, n)
	}
	if s.FramePayload < 0 || s.FramePayload > 255 {
		e.add("stream.framePayload", "%d bytes/frame; want 0 (default) .. 255 (the frame length field is one byte)", s.FramePayload)
	}
	if s.PayloadBytes < 0 {
		e.add("stream.payloadBytes", "must be >= 0")
	} else if max := transport.MaxPayloadBytes(s.FramePayload); s.PayloadBytes > max {
		e.add("stream.payloadBytes", "%d bytes exceeds the %d-byte single-send limit at this frame size", s.PayloadBytes, max)
	}
	return out
}

func compileROC(r ROCSpec, e *errs) lruleak.ROCSpec {
	out := lruleak.ROCSpec{
		Trials: r.Trials, Symbols: r.Symbols,
		BenignRefs: r.BenignRefs, BenignSlice: r.BenignSlice,
	}
	for i, name := range r.Victims {
		if err := tryVictim(name, lruleak.SandyBridge().L1Sets); err != nil {
			e.add(fmt.Sprintf("roc.victims[%d]", i), "%v", err)
			continue
		}
		out.Victims = append(out.Victims, name)
	}
	for i, name := range r.Policies {
		pol, err := replacement.ParseKind(name)
		if err != nil {
			e.add(fmt.Sprintf("roc.policies[%d]", i), "%v", err)
			continue
		}
		out.Policies = append(out.Policies, pol)
	}
	for i, name := range r.Defenses {
		def, err := lruleak.AttackDefenseByName(name)
		if err != nil {
			e.add(fmt.Sprintf("roc.defenses[%d]", i), "%v", err)
			continue
		}
		out.Defenses = append(out.Defenses, def)
	}
	for i, th := range r.Thresholds {
		if th < 0 {
			e.add(fmt.Sprintf("roc.thresholds[%d]", i), "thresholds are rates; %g is negative", th)
		}
	}
	out.Thresholds = append(out.Thresholds, r.Thresholds...)
	nonNegative(e, "roc.trials", r.Trials, 1024)
	nonNegative(e, "roc.symbols", r.Symbols, 1024)
	nonNegative(e, "roc.benignRefs", r.BenignRefs, 100_000_000)
	nonNegative(e, "roc.benignSlice", r.BenignSlice, 100_000_000)
	return out
}
