package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestSuiteComplete(t *testing.T) {
	gens := Suite(1)
	if len(gens) != 12 {
		t.Fatalf("suite has %d benchmarks", len(gens))
	}
	seen := map[string]bool{}
	for _, g := range gens {
		if g.Name() == "" {
			t.Error("unnamed generator in suite")
		}
		if seen[g.Name()] {
			t.Errorf("duplicate benchmark %q", g.Name())
		}
		seen[g.Name()] = true
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("mcf", 1)
	if err != nil || g.Name() != "mcf" {
		t.Errorf("ByName(mcf) = %v, %v", g, err)
	}
	if _, err := ByName("doom", 1); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "libquantum", "bzip2", "milc"} {
		a, _ := ByName(name, 7)
		b, _ := ByName(name, 7)
		for i := 0; i < 1000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%s: streams diverge at %d", name, i)
			}
		}
	}
}

func TestResetRestartsStream(t *testing.T) {
	g, _ := ByName("gcc", 3)
	var first []Access
	for i := 0; i < 100; i++ {
		first = append(first, g.Next())
	}
	g.Reset(3 + 2*1315423911) // gcc is suite index 2
	for i := 0; i < 100; i++ {
		if g.Next() != first[i] {
			t.Fatalf("Reset did not restart stream at %d", i)
		}
	}
}

func TestSequentialIsSequential(t *testing.T) {
	g, _ := ByName("libquantum", 1)
	prev := g.Next().Addr
	for i := 0; i < 1000; i++ {
		cur := g.Next().Addr
		if cur != prev+64 && cur != 0 { // wraps at buffer end
			t.Fatalf("non-sequential step %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestZipfIsSkewed(t *testing.T) {
	g, _ := ByName("gcc", 5)
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[g.Next().Addr]++
	}
	// A Zipf stream concentrates: the top 10% of touched lines must
	// carry well over 10% of accesses.
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	top := 0
	total := 0
	max10 := len(all) / 10
	// Selection without sort package gymnastics: count accesses above a
	// threshold found by scanning.
	for _, c := range all {
		total += c
	}
	// Simple: find the max10 largest by repeated max scan (small n).
	used := make([]bool, len(all))
	for k := 0; k < max10; k++ {
		best, bi := -1, -1
		for i, c := range all {
			if !used[i] && c > best {
				best, bi = c, i
			}
		}
		used[bi] = true
		top += best
	}
	if float64(top)/float64(total) < 0.3 {
		t.Errorf("top 10%% of lines carry only %.1f%% of accesses; not Zipf-like",
			100*float64(top)/float64(total))
	}
}

func TestPointerChaseCoversWorkingSet(t *testing.T) {
	g, _ := ByName("mcf", 9)
	seen := map[uint64]bool{}
	for i := 0; i < 1<<16; i++ {
		seen[g.Next().Addr] = true
	}
	// The permutation cycle must cover the full working set.
	if len(seen) != 1<<16 {
		t.Errorf("pointer chase visited %d distinct lines, want %d", len(seen), 1<<16)
	}
}

func TestMixedHasTwoRegions(t *testing.T) {
	g, _ := ByName("bzip2", 11)
	var hot, cold int
	for i := 0; i < 10000; i++ {
		if g.Next().Addr >= 1<<30 {
			cold++
		} else {
			hot++
		}
	}
	if hot == 0 || cold == 0 {
		t.Errorf("mixed workload degenerate: hot=%d cold=%d", hot, cold)
	}
	if hot < cold {
		t.Errorf("hot region should dominate: hot=%d cold=%d", hot, cold)
	}
}

func TestByNameMatchesSuiteBenchmark(t *testing.T) {
	for _, seed := range []uint64{1, 0x5eed} {
		for i := 0; i < SuiteSize(); i++ {
			want := SuiteBenchmark(i, seed)
			got, err := ByName(want.Name(), seed)
			if err != nil {
				t.Fatalf("ByName(%q): %v", want.Name(), err)
			}
			for k := 0; k < 10000; k++ {
				if a, b := got.Next(), want.Next(); a != b {
					t.Fatalf("%s seed %d: ref %d is %#x, SuiteBenchmark gives %#x", want.Name(), seed, k, a.Addr, b.Addr)
				}
			}
		}
	}
}

// streamHash is the FNV-1a hash of the first n refs of g, as
// little-endian uint64 addresses.
func streamHash(g Generator, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for k := 0; k < n; k++ {
		binary.LittleEndian.PutUint64(b[:], g.Next().Addr)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSuiteStreamsPinned pins the first 10k refs of every suite
// generator at two seeds. The hashes were taken from the generators as
// they were before the Zipf tables were shared and guide-indexed, so
// any change to a table, the draw or a seed derivation fails here
// before it reaches a golden.
func TestSuiteStreamsPinned(t *testing.T) {
	want := map[uint64][12]uint64{
		1: {0x6f20e00bf484de14, 0x4af67f703b4076cc, 0x62b49a0968f5b770, 0x2e67a25d19a80c3a,
			0x8edb461f4a505fe7, 0xf114fca20b3cc326, 0xf3efb123ed930854, 0x025dd48960cc73a1,
			0x3aff88a79e09a631, 0xe510cf54bbeb2dd8, 0xc9cfc0f6cf05fe76, 0xd25d9998422076aa},
		0x5eed: {0x1324d3e9f59872b6, 0x83838d9b7a9f90e8, 0x2d152a65bb96f2f1, 0xb055160e3953c987,
			0x3a47dab4656d6cbb, 0xe0ec54112c2211a6, 0xf2f5ea5b3803aea0, 0xdb06e0869d2231a5,
			0xd9c61d0e4a28acc6, 0x359b3cab82073ce5, 0x03e70baf1e0c8e9d, 0x38e66d8db387a434},
	}
	for seed, hashes := range want {
		for i := 0; i < SuiteSize(); i++ {
			g := SuiteBenchmark(i, seed)
			if got := streamHash(g, 10000); got != hashes[i] {
				t.Errorf("%s seed %d: stream hash %#016x, want %#016x", g.Name(), seed, got, hashes[i])
			}
		}
	}
}

// zipfTables returns the table of every Zipf shape in the suite: the
// standalone Zipf generators and the hot regions of the mixed ones.
func zipfTables(t *testing.T) map[string]*zipfTable {
	t.Helper()
	out := map[string]*zipfTable{}
	for _, g := range Suite(1) {
		switch g := g.(type) {
		case *zipf:
			out[g.name] = g.table
		case *mixed:
			out[g.name] = g.hot.table
		}
	}
	if len(out) != 6 {
		t.Fatalf("found %d Zipf shapes in the suite, want 6", len(out))
	}
	return out
}

// fullSearch is the plain lower-bound search over the whole CDF that
// the guide table narrows.
func fullSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestGuideTableMatchesFullSearch(t *testing.T) {
	for name, tab := range zipfTables(t) {
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := tab.rank(u), fullSearch(tab.cdf, u); got != want {
				t.Fatalf("%s: rank(%v) = %d, full search gives %d", name, u, got, want)
			}
		}
		check(0)
		buckets := int(tab.buckets)
		for b := 1; b < buckets; b++ {
			edge := float64(b) / tab.buckets
			check(edge)
			check(math.Nextafter(edge, 0))
			check(math.Nextafter(edge, 1))
		}
		for i := 0; i < len(tab.cdf); i += 1 + i/64 {
			check(tab.cdf[i])
			check(math.Nextafter(tab.cdf[i], 0))
			check(math.Nextafter(tab.cdf[i], 1))
		}
		check(math.Nextafter(1, 0))
		r := rng.New(uint64(len(tab.cdf)))
		for k := 0; k < 1<<20; k++ {
			check(r.Float64())
		}
	}
}

func TestResetAllocatesNothing(t *testing.T) {
	for _, g := range Suite(1) {
		if _, ok := g.(*pointerChase); ok {
			continue // its permutation is a function of the seed
		}
		seed := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			seed++
			g.Reset(seed)
			g.Next()
		})
		if allocs != 0 {
			t.Errorf("%s: Reset+Next allocates %.1f times, want 0", g.Name(), allocs)
		}
	}
}

// TestConcurrentBuildsAgree builds every generator from many goroutines
// at once; they share the Zipf tables, so under -race this checks that
// the tables are built once and only read afterwards.
func TestConcurrentBuildsAgree(t *testing.T) {
	want := make([]uint64, SuiteSize())
	for i := range want {
		want[i] = streamHash(SuiteBenchmark(i, 3), 1000)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*SuiteSize())
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				g, err := ByName(suite[i].name, 3)
				if err != nil {
					errs <- err
					continue
				}
				if got := streamHash(g, 1000); got != want[i] {
					errs <- fmt.Errorf("%s: concurrent build streams %#x, serial %#x", g.Name(), got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
