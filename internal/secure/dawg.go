package secure

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/rng"
)

// DAWGCache models the relevant property of DAWG (Kiriansky et al.,
// Section IX-B): cache ways AND the replacement state are partitioned
// between protection domains. Each domain owns a private cache.Cache of
// ways/domains ways per set — its own lines, packed replacement state
// and counters — so no access by one domain can influence the victim
// selection, or the observable timing, of another. Lookups search only
// the accessing domain's partition: DAWG partitions hits too, since a
// cross-domain hit would itself be a channel.
type DAWGCache struct {
	parts []*cache.Cache // indexed by domain
}

// NewDAWG builds a partitioned cache: `ways` total ways per set divided
// evenly among `domains` protection domains, running Tree-PLRU inside
// each partition.
func NewDAWG(sets, ways, domains int) *DAWGCache {
	return NewDAWGWithPolicy(sets, ways, domains, replacement.TreePLRU, nil)
}

// NewDAWGWithPolicy is NewDAWG with an explicit per-partition
// replacement policy, for the secret-recovery defense matrix that
// sweeps the attack across policies. r is required when pol is
// replacement.Random; each partition draws its victims from its own
// split of r, so one domain's misses never shift another's victim
// sequence.
func NewDAWGWithPolicy(sets, ways, domains int, pol replacement.Kind, r *rng.Rand) *DAWGCache {
	if domains < 1 || ways%domains != 0 {
		panic(fmt.Sprintf("secure: %d ways not divisible among %d domains", ways, domains))
	}
	d := &DAWGCache{parts: make([]*cache.Cache, domains)}
	for dom := range d.parts {
		cfg := cache.Config{Name: "DAWG-L1D", Sets: sets, Ways: ways / domains, LineSize: 64, Policy: pol}
		if r != nil {
			cfg.RNG = r.Split()
		}
		d.parts[dom] = cache.New(cfg)
	}
	return d
}

// Domain returns the partition owned by one domain. Accesses to it must
// carry that domain as their requestor.
func (d *DAWGCache) Domain(domain int) *cache.Cache { return d.parts[domain] }

// Reset returns every partition to power-on state: all lines invalid,
// replacement state at its reset value, counters zeroed. Trial loops
// reuse one DAWGCache through Reset instead of reconstructing it.
func (d *DAWGCache) Reset() {
	for _, p := range d.parts {
		p.Reset()
	}
}

// Access performs a load by `domain` in its own partition and reports
// whether it hit.
func (d *DAWGCache) Access(physLine uint64, domain int) (hit bool) {
	return d.parts[domain].Access(cache.Request{PhysLine: physLine, Requestor: domain}).Hit
}

// Contains reports whether the line is resident in the given domain's
// partition.
func (d *DAWGCache) Contains(physLine uint64, domain int) bool {
	return d.parts[domain].Contains(physLine)
}

// PolicyState renders one domain's replacement state in a set.
func (d *DAWGCache) PolicyState(set, domain int) string {
	return d.parts[domain].PolicyState(set)
}

// DAWGLeakExperiment runs the Algorithm 2 single-set protocol against the
// partitioned cache: the receiver (domain 1) primes its partition, the
// sender (domain 0) accesses its line or not, the receiver decodes. It
// returns the fraction of trials in which the receiver correctly decoded
// the sender's bit — which must sit at chance (~0.5), because the
// partitions are independent.
func DAWGLeakExperiment(trials int, seed uint64) float64 {
	r := newSeededRand(seed)
	ok := 0
	d := NewDAWG(64, 8, 2)
	for trial := 0; trial < trials; trial++ {
		d.Reset()
		const set = 5
		line := func(i int) uint64 { return uint64(i)*64 + set }
		ways := 4 // receiver's partition size
		// Receiver primes its partition with its own lines.
		for i := 0; i < ways; i++ {
			d.Access(line(i), 1)
		}
		bit := r.Bit()
		if bit == 1 {
			d.Access(line(100), 0) // sender's access in its own domain
		}
		// Receiver decodes: one more line, then checks line 0.
		d.Access(line(ways), 1)
		got := byte(1)
		if d.Contains(line(0), 1) {
			got = 0
		}
		if got == bit {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}
