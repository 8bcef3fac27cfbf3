package victim

import (
	"slices"
	"sync"
	"testing"
)

func allVictims(t *testing.T) []Victim {
	t.Helper()
	var out []Victim
	for _, name := range Names() {
		v, err := ByName(name, 64)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if v.Name() != name {
			t.Errorf("ByName(%q) yields Name %q", name, v.Name())
		}
		out = append(out, v)
	}
	return out
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 64); err == nil {
		t.Error("unknown victim accepted")
	}
}

func TestSequenceDeterministic(t *testing.T) {
	for _, v := range allVictims(t) {
		for sym := 0; sym < v.SymbolSpace(); sym++ {
			a := v.Sequence(sym, 42)
			b := v.Sequence(sym, 42)
			if len(a) != len(b) {
				t.Fatalf("%s: lengths differ for symbol %d", v.Name(), sym)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: step %d differs for symbol %d", v.Name(), i, sym)
				}
			}
		}
	}
}

func TestSequenceHasExactlyOneSecretAccessInMonitoredSet(t *testing.T) {
	for _, v := range allVictims(t) {
		monitored := map[int]bool{}
		for _, s := range v.MonitorSets() {
			monitored[s] = true
		}
		for sym := 0; sym < v.SymbolSpace(); sym++ {
			secrets := 0
			for _, st := range v.Sequence(sym, 7) {
				if st.Secret {
					secrets++
					if !monitored[int(st.Line%64)] {
						t.Errorf("%s: secret access to unmonitored set %d", v.Name(), st.Line%64)
					}
				}
			}
			// Square-and-multiply's bit 0 is encoded by ABSENCE of the
			// multiply access; every other (victim, symbol) pair makes
			// exactly one secret-dependent access.
			wantSecret := 1
			if v.Name() == "sqmul" && sym == 0 {
				wantSecret = 0
			}
			if secrets != wantSecret {
				t.Errorf("%s symbol %d: %d secret accesses, want %d", v.Name(), sym, secrets, wantSecret)
			}
		}
	}
}

func TestDistinctSymbolsTouchDistinctLines(t *testing.T) {
	for _, v := range allVictims(t) {
		lines := v.TableLines()
		seen := map[uint64]bool{}
		for _, ln := range lines {
			if seen[ln] {
				t.Errorf("%s: duplicate table line %d", v.Name(), ln)
			}
			seen[ln] = true
		}
	}
}

func TestSymbolReduction(t *testing.T) {
	v, _ := ByName("ttable", 64)
	a := v.Sequence(-1, 5)
	b := v.Sequence(15, 5)
	if len(a) != len(b) {
		t.Fatal("reduced symbol sequence length differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("-1 should reduce to 15 for a 16-symbol victim")
		}
	}
}

func TestWarmLinesCoverNoiseFootprint(t *testing.T) {
	v, _ := ByName("ttable", 64)
	warm := map[uint64]bool{}
	for _, ln := range v.WarmLines() {
		warm[ln] = true
	}
	// Every non-secret line any window can touch must be pre-warmed.
	for sym := 0; sym < v.SymbolSpace(); sym++ {
		for seed := uint64(1); seed < 20; seed++ {
			for _, st := range v.Sequence(sym, seed) {
				if !st.Secret && !warm[st.Line] {
					t.Fatalf("background line %d not in WarmLines", st.Line)
				}
			}
		}
	}
}

func TestDemoSecretDeterministicAndInRange(t *testing.T) {
	for _, v := range allVictims(t) {
		a := DemoSecret(v, 32, 9)
		b := DemoSecret(v, 32, 9)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: demo secret not deterministic", v.Name())
			}
			if a[i] < 0 || a[i] >= v.SymbolSpace() {
				t.Fatalf("%s: symbol %d out of range", v.Name(), a[i])
			}
		}
	}
}

func TestParseFormatSecretRoundTrip(t *testing.T) {
	v, _ := ByName("ttable", 64)
	sec, err := ParseSecret(v, "0fA9")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 15, 10, 9}
	for i := range want {
		if sec[i] != want[i] {
			t.Fatalf("parsed %v, want %v", sec, want)
		}
	}
	if got := FormatSecret(v, sec); got != "0fa9" {
		t.Errorf("formatted %q", got)
	}
	if _, err := ParseSecret(v, "xyz"); err == nil {
		t.Error("non-hex secret accepted for 16-symbol victim")
	}
	if _, err := ParseSecret(v, ""); err == nil {
		t.Error("empty secret accepted")
	}

	bits, _ := ByName("sqmul", 64)
	if _, err := ParseSecret(bits, "10110"); err != nil {
		t.Errorf("bit secret rejected: %v", err)
	}
	if _, err := ParseSecret(bits, "2"); err == nil {
		t.Error("digit 2 accepted for a 2-symbol victim")
	}
}

func TestLookupWidthValidation(t *testing.T) {
	if _, err := NewTableLookup(64, 0, 1, "gcc"); err == nil {
		t.Error("width 1 accepted")
	}
	if _, err := NewTableLookup(64, 0, 65, "gcc"); err == nil {
		t.Error("width > sets accepted")
	}
	if _, err := NewTableLookup(64, 0, 8, "not-a-benchmark"); err == nil {
		t.Error("unknown generator accepted")
	}
}

// TestByNameAllocationBound pins victim construction at a handful of
// small allocations: the victim, its background generator and its hot
// loop. Building a whole workload suite or a fresh Zipf table per
// victim would show up here as hundreds of allocations and megabytes.
func TestByNameAllocationBound(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name, 64); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ByName(name, 64); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", name, allocs)
		if allocs > 8 {
			t.Errorf("victim.ByName(%q, 64) allocates %.0f times, want <= 8", name, allocs)
		}
	}
}

// TestConcurrentVictimsAgree builds and runs victims from several
// goroutines at once. Their background generators share the workload
// package's read-only Zipf tables, which -race checks here.
func TestConcurrentVictimsAgree(t *testing.T) {
	want := map[string][]Step{}
	for _, v := range allVictims(t) {
		want[v.Name()] = v.Sequence(1, 99)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(want))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, seq := range want {
				v, err := ByName(name, 64)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if !slices.Equal(v.Sequence(1, 99), seq) {
					errs <- name + ": concurrent build gave a different sequence"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
