package hier

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// Bit-identity of the hierarchy batch path: LoadBatch must be
// indistinguishable from per-address Load calls — same Results, same
// per-level Stats, same replacement-state and RNG evolution — across
// every policy, prefetcher, and profile corner, including the
// configurations where it falls back to the per-access path.

// batchHierConfigs enumerates the corners: plain deterministic (phase
// split eligible), Random L1 (per-access fallback), each prefetcher
// (fallback), utag profile, and the PL configs.
func batchHierConfigs() []Config {
	sb, zen := uarch.SandyBridge(), uarch.Zen()
	return []Config{
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TrueLRU, L2Policy: replacement.BitPLRU},
		{Profile: sb, L1Policy: replacement.BitPLRU, L2Policy: replacement.TreePLRU},
		{Profile: sb, L1Policy: replacement.FIFO, L2Policy: replacement.TreePLRU},
		{Profile: sb, L1Policy: replacement.Random, L2Policy: replacement.TreePLRU, WithLLC: true},
		{Profile: sb, L1Policy: replacement.FIFO, L2Policy: replacement.TreePLRU, Prefetcher: PrefetchNextLine},
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, Prefetcher: PrefetchStride, WithLLC: true},
		{Profile: zen, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, PartitionLockedL1: true, WithLLC: true},
		{Profile: sb, L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU, PartitionLockedL1: true, LockReplacementStateL1: true},
	}
}

func cfgName(cfg Config) string {
	return fmt.Sprintf("%s/%v-%v/pf=%v/pl=%v", cfg.Profile.Arch, cfg.L1Policy, cfg.L2Policy,
		cfg.Prefetcher, cfg.PartitionLockedL1)
}

// batchAddrs builds a stream mixing set-local churn (revisits that
// produce L1 hits) with strided cold misses.
func batchAddrs(cfg Config, n int, seed uint64) []mem.Addr {
	r := rng.New(seed)
	sets := uint64(cfg.Profile.L1Sets)
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		var line uint64
		switch r.Intn(4) {
		case 0: // cold-ish: large tag space
			line = uint64(r.Intn(64))*sets*7 + uint64(r.Intn(int(sets)))
		default: // hot working set: few tags, few sets
			line = uint64(r.Intn(10))*sets + uint64(r.Intn(4))
		}
		addrs[i] = lineAddr(line)
	}
	return addrs
}

func hierStats(h *Hierarchy) string {
	s := fmt.Sprintf("L1 %+v %+v\nL2 %+v %+v\n",
		h.l1.Stats(), h.l1.RequestorStats(0), h.l2.Stats(), h.l2.RequestorStats(1))
	if h.llc != nil {
		s += fmt.Sprintf("LLC %+v\n", h.llc.Stats())
	}
	// Replacement state too: the batch loop updates it through a
	// different code path than per-access execution, so counter
	// equality alone would not prove bit-identity.
	for set := 0; set < h.l1.Sets(); set++ {
		s += h.l1.PolicyState(set) + "\n"
	}
	return s
}

func TestLoadBatchMatchesLoad(t *testing.T) {
	for _, cfg := range batchHierConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			addrs := batchAddrs(cfg, 600, 42)
			ca, cb := cfg, cfg
			if cfg.L1Policy == replacement.Random {
				ca.RNG, cb.RNG = rng.New(7), rng.New(7)
			}
			hs, hb := New(ca), New(cb)

			want := make([]Result, len(addrs))
			for i, a := range addrs {
				want[i] = hs.Load(a, i%2)
			}
			// Split the batch mid-stream across requestors like the
			// serial loop did — LoadBatch takes one requestor, so feed
			// it per-requestor runs of one address each via chunks of
			// the same interleave.
			got := make([]Result, len(addrs))
			for i := 0; i < len(addrs); i++ {
				hb.LoadBatch(addrs[i:i+1], i%2, got[i:i+1])
			}
			// Then a second identical pass as real multi-address
			// batches with a single requestor, against a serial
			// reference continuing from the same state.
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d diverges: batch %+v, serial %+v", i, got[i], want[i])
				}
			}
			tail := batchAddrs(cfg, 400, 99)
			tw := make([]Result, len(tail))
			for i, a := range tail {
				tw[i] = hs.Load(a, 0)
			}
			tg := make([]Result, len(tail))
			hb.LoadBatch(tail, 0, tg)
			for i := range tw {
				if tg[i] != tw[i] {
					t.Fatalf("tail record %d diverges: batch %+v, serial %+v", i, tg[i], tw[i])
				}
			}
			if a, b := hierStats(hs), hierStats(hb); a != b {
				t.Fatalf("stats diverge:\nserial:\n%s\nbatch:\n%s", a, b)
			}
		})
	}
}

// A whole load trace replayed from power-on in one LoadBatch call must
// match serial Load record for record. The trace is longer than
// batchChunk, so the replay crosses chunk boundaries, where the scratch
// buffers are reused and the phase split restarts.
func TestLoadTraceMatchesLoad(t *testing.T) {
	for _, cfg := range batchHierConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			addrs := batchAddrs(cfg, 2*batchChunk+300, 4242)
			ca, cb := cfg, cfg
			if cfg.L1Policy == replacement.Random {
				ca.RNG, cb.RNG = rng.New(3), rng.New(3)
			}
			hs, hb := New(ca), New(cb)

			want := make([]Result, len(addrs))
			for i, a := range addrs {
				want[i] = hs.Load(a, 0)
			}
			got := make([]Result, len(addrs))
			hb.LoadBatch(addrs, 0, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d diverges: batch %+v, serial %+v", i, got[i], want[i])
				}
			}
			if a, b := hierStats(hs), hierStats(hb); a != b {
				t.Fatalf("stats diverge:\nserial:\n%s\nbatch:\n%s", a, b)
			}
		})
	}
}

// LoadBatch must stay allocation-free after the first call sized the
// scratch buffers.
func TestLoadBatchZeroAllocs(t *testing.T) {
	cfg := Config{Profile: uarch.SandyBridge(), L1Policy: replacement.TreePLRU,
		L2Policy: replacement.TreePLRU, WithLLC: true}
	h := New(cfg)
	addrs := batchAddrs(cfg, 256, 1)
	out := make([]Result, len(addrs))
	h.LoadBatch(addrs, 0, out)
	if got := testing.AllocsPerRun(100, func() {
		h.LoadBatch(addrs, 0, out)
	}); got != 0 {
		t.Errorf("LoadBatch allocates %.1f allocs/op, want 0", got)
	}
}
