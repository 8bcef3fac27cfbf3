package hier

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/replacement"
)

// Batch execution over the hierarchy. LoadBatch replays a
// pre-resolved address slice bit-identically to per-access Load calls:
// same results, same per-level Stats, same replacement-state and RNG
// evolution. Where the configuration allows it, it splits the work into
// one L1 AccessBatch pass plus a walk of the misses — valid because L1
// and L2 hold independent state, so only a shared Random generator or a
// prefetcher (whose loads re-enter the L1 between records) forces
// strict per-access interleaving.

// batchChunk bounds the scratch buffers of LoadBatch: requests
// are staged and executed in chunks so arbitrarily long programs run
// allocation-free after the first call.
const batchChunk = 1024

// phaseSplitOK reports whether the L1 pass may run ahead of the lower
// levels: no level draws victims from the shared generator, and no
// prefetcher injects loads between records.
func (h *Hierarchy) phaseSplitOK() bool {
	return h.cfg.L1Policy != replacement.Random &&
		h.cfg.L2Policy != replacement.Random &&
		h.cfg.Prefetcher == PrefetchNone
}

func (h *Hierarchy) scratch(n int) ([]cache.Request, []cache.Result) {
	if h.breqs == nil {
		h.breqs = make([]cache.Request, batchChunk)
		h.bres = make([]cache.Result, batchChunk)
	}
	return h.breqs[:n], h.bres[:n]
}

// LoadBatch performs loads of addrs in order on behalf of requestor,
// writing the i'th load's Result to out[i] (out must be at least as
// long as addrs). It is bit-identical to calling Load per address.
func (h *Hierarchy) LoadBatch(addrs []mem.Addr, requestor int, out []Result) {
	if len(out) < len(addrs) {
		panic("hier: LoadBatch output slice shorter than address slice")
	}
	if !h.phaseSplitOK() {
		for i := range addrs {
			out[i] = h.load(addrs[i], requestor, cache.OpLoad, true)
		}
		return
	}
	p := h.cfg.Profile
	l1Hit := Result{Level: LevelL1, Latency: p.L1Latency, L1Hit: true}
	for base := 0; base < len(addrs); base += batchChunk {
		n := min(batchChunk, len(addrs)-base)
		reqs, res := h.scratch(n)
		for i := 0; i < n; i++ {
			a := &addrs[base+i]
			reqs[i] = cache.Request{PhysLine: a.PhysLine, LinearLine: a.VirtLine, Requestor: requestor}
		}
		h.l1.AccessBatch(reqs, res)
		for i := 0; i < n; i++ {
			if res[i].Hit && !res[i].UtagMiss {
				out[base+i] = l1Hit
				continue
			}
			out[base+i] = h.finish(addrs[base+i], requestor, res[i], true)
		}
	}
}
