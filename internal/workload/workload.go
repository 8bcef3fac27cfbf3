// Package workload generates synthetic memory-reference traces standing in
// for the SPEC CPU2006 benchmarks of Figure 9 (the paper drives GEM5 with
// SPEC; we cannot redistribute SPEC, so each benchmark is replaced by a
// generator with a similar locality profile — see DESIGN.md's substitution
// table).
//
// Each Benchmark produces a deterministic stream of virtual addresses given
// a seed. The profiles vary along the axes that matter to a replacement
// policy study: working-set size relative to the L1D, reuse-distance
// distribution (Zipf-like vs uniform), streaming vs strided vs
// pointer-chasing access order, and the fraction of accesses to a small hot
// region.
package workload

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// Access is one memory reference.
type Access struct {
	Addr uint64 // virtual byte address
}

// Generator yields an infinite reference stream.
type Generator interface {
	// Name identifies the workload (the SPEC benchmark it imitates).
	Name() string
	// Next returns the next reference.
	Next() Access
	// Reset restarts the stream with a fresh seed.
	Reset(seed uint64)
}

const lineSize = 64

// sequential streams through a buffer repeatedly: the libquantum/lbm-like
// profile, maximal spatial locality, no temporal reuse within the sweep.
type sequential struct {
	name   string
	bytes  uint64
	pos    uint64
	stride uint64
}

func (s *sequential) Name() string { return s.name }
func (s *sequential) Reset(seed uint64) {
	s.pos = (seed * 0x9e3779b9) % s.bytes
}
func (s *sequential) Next() Access {
	a := Access{Addr: s.pos}
	s.pos = (s.pos + s.stride) % s.bytes
	return a
}

// zipfTable is the immutable part of a Zipf generator: the normalized
// CDF over ranks and a guide table into it. One table exists per suite
// shape, built on first use and then shared read-only by every
// generator of that shape, on any goroutine.
//
// guide[b] is the first rank whose CDF value is >= b/buckets, for b in
// [0, buckets), and guide[buckets] is the last rank. A draw u in bucket
// b = int(u*buckets) lies in [b/buckets, (b+1)/buckets), so the first
// rank with cdf >= u lies in [guide[b], guide[b+1]], and a lower-bound
// search over that range returns exactly the rank a search over the
// whole CDF would. buckets is a power of two, so u*buckets and its
// truncation are exact for every float64 u in [0, 1).
type zipfTable struct {
	cdf     []float64
	guide   []int32
	buckets float64
}

func newZipfTable(lines int, skew float64) *zipfTable {
	cdf := make([]float64, lines)
	sum := 0.0
	for i := 0; i < lines; i++ {
		sum += 1 / math.Pow(float64(i+1), skew)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	buckets := 1
	for buckets < lines {
		buckets <<= 1
	}
	guide := make([]int32, buckets+1)
	rank := 0
	for b := 0; b < buckets; b++ {
		edge := float64(b) / float64(buckets)
		for cdf[rank] < edge {
			rank++
		}
		guide[b] = int32(rank)
	}
	guide[buckets] = int32(lines - 1)
	return &zipfTable{cdf: cdf, guide: guide, buckets: float64(buckets)}
}

// rank returns the first rank whose CDF value is >= u, for u in [0, 1).
func (t *zipfTable) rank(u float64) int {
	b := int(u * t.buckets)
	lo, hi := int(t.guide[b]), int(t.guide[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipf draws lines from a Zipf-like distribution over a working set: the
// gcc/perlbench-like profile where a hot minority of lines carries most
// references. Temporal locality is strong, so LRU-family policies shine.
type zipf struct {
	name  string
	table *zipfTable // shared, read-only
	r     rng.Rand
}

func (z *zipf) Name() string      { return z.name }
func (z *zipf) Reset(seed uint64) { z.r.Reseed(seed) }
func (z *zipf) Next() Access {
	lo := z.table.rank(z.r.Float64())
	// Scramble rank -> line so hot lines spread across cache sets.
	line := uint64(lo) * 0x9e3779b97f4a7c15 % uint64(len(z.table.cdf))
	return Access{Addr: line * lineSize}
}

// pointerChase jumps through a randomized permutation of a large working
// set: the mcf/omnetpp-like profile, almost no locality the cache can use.
// The permutation is a function of the seed, so only Reset builds it.
type pointerChase struct {
	name  string
	lines int
	next  []uint32
	pos   uint32
}

func (p *pointerChase) Name() string { return p.name }
func (p *pointerChase) Reset(seed uint64) {
	perm := rng.New(seed).Perm(p.lines)
	if p.next == nil {
		p.next = make([]uint32, p.lines)
	}
	for i := 0; i < p.lines; i++ {
		p.next[perm[i]] = uint32(perm[(i+1)%p.lines])
	}
	p.pos = uint32(perm[0])
}
func (p *pointerChase) Next() Access {
	a := Access{Addr: uint64(p.pos) * lineSize}
	p.pos = p.next[p.pos]
	return a
}

// strided walks a working set with a fixed multi-line stride, wrapping: the
// milc/soplex-like profile. Spatial reuse across sweeps, conflict-prone.
type strided struct {
	name   string
	lines  uint64
	stride uint64
	pos    uint64
}

func (s *strided) Name() string      { return s.name }
func (s *strided) Reset(seed uint64) { s.pos = seed % s.lines }
func (s *strided) Next() Access {
	a := Access{Addr: s.pos * lineSize}
	s.pos = (s.pos + s.stride) % s.lines
	return a
}

// mixed interleaves a hot Zipf region with occasional streaming sweeps:
// bzip2/h264ref-like.
type mixed struct {
	name string
	hot  zipf
	cold sequential
	r    rng.Rand
	p    float64 // probability of a hot access
}

func (m *mixed) Name() string { return m.name }
func (m *mixed) Reset(seed uint64) {
	m.hot.Reset(seed)
	m.cold.Reset(seed + 1)
	m.r.Reseed(seed + 2)
}
func (m *mixed) Next() Access {
	if m.r.Float64() < m.p {
		return m.hot.Next()
	}
	a := m.cold.Next()
	a.Addr += 1 << 30 // keep the cold region disjoint from the hot one
	return a
}

// zipfBench and mixedBench build the suite's Zipf-based generators. Each
// row holds one sync.OnceValue for its shape's table, so the table is
// built on first use and then shared by every generator of that row.
func zipfBench(lines int, skew float64) func(string) Generator {
	table := sync.OnceValue(func() *zipfTable { return newZipfTable(lines, skew) })
	return func(name string) Generator { return &zipf{name: name, table: table()} }
}

func mixedBench(hotLines int, skew float64, coldBytes uint64, p float64) func(string) Generator {
	table := sync.OnceValue(func() *zipfTable { return newZipfTable(hotLines, skew) })
	return func(name string) Generator {
		return &mixed{name: name, hot: zipf{table: table()},
			cold: sequential{bytes: coldBytes, stride: lineSize}, p: p}
	}
}

// suite is the Figure 9 benchmark table, in suite order. Each row's
// build returns its generator unseeded; SuiteBenchmark seeds it.
var suite = [...]struct {
	name  string
	build func(name string) Generator
}{
	{"perlbench", zipfBench(4096, 1.1)},
	{"bzip2", mixedBench(1024, 1.0, 1<<22, 0.85)},
	{"gcc", zipfBench(16384, 0.9)},
	{"mcf", func(name string) Generator { return &pointerChase{name: name, lines: 1 << 16} }},
	{"gobmk", mixedBench(2048, 1.2, 1<<20, 0.7)},
	{"hmmer", func(name string) Generator { return &strided{name: name, lines: 3000, stride: 7} }},
	{"sjeng", zipfBench(8192, 1.05)},
	{"libquantum", func(name string) Generator {
		return &sequential{name: name, bytes: 1 << 23, stride: lineSize}
	}},
	{"omnetpp", func(name string) Generator { return &pointerChase{name: name, lines: 1 << 15} }},
	{"milc", func(name string) Generator { return &strided{name: name, lines: 1 << 14, stride: 33} }},
	{"lbm", func(name string) Generator {
		return &sequential{name: name, bytes: 1 << 24, stride: 2 * lineSize}
	}},
	{"sphinx3", mixedBench(512, 1.3, 1<<21, 0.6)},
}

// SuiteSize is the number of Figure 9 benchmarks, without constructing
// any of them.
func SuiteSize() int { return len(suite) }

// SuiteBenchmark builds and seeds the i'th suite benchmark alone. It is
// identical to Suite(seed)[i].
func SuiteBenchmark(i int, seed uint64) Generator {
	g := suite[i].build(suite[i].name)
	g.Reset(seed + uint64(i)*1315423911)
	return g
}

// Suite returns the Figure 9 benchmark suite, seeded and ready to stream.
// Names follow the SPEC programs whose locality each generator imitates.
func Suite(seed uint64) []Generator {
	gens := make([]Generator, SuiteSize())
	for i := range gens {
		gens[i] = SuiteBenchmark(i, seed)
	}
	return gens
}

// ByName builds the named suite generator alone; it is identical to the
// generator Suite(seed) holds under that name.
func ByName(name string, seed uint64) (Generator, error) {
	for i := range suite {
		if suite[i].name == name {
			return SuiteBenchmark(i, seed), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}
