package cache

// Batch execution: the per-access API costs a call, a config check and
// a counter lookup per reference; the figure and table drivers issue
// hundreds of millions of references whose requests are known up front.
// AccessBatch runs a pre-resolved request slice through one tight loop
// over the line slab and the packed replacement state, bit-identical to
// the per-access path (the FuzzBatchEquivalence target pins this) and
// allocation-free once the per-requestor counter table covers the
// requestors in the batch.

// AccessBatch performs reqs in order, writing the i'th access's Result
// to out[i] (out must be at least as long as reqs, or nil to discard
// the results — the eviction-study loops only inspect state between
// batches). Results, Stats, replacement-state evolution and RNG draw
// order are bit-identical to calling Access once per request.
func (c *Cache) AccessBatch(reqs []Request, out []Result) {
	if out != nil && len(out) < len(reqs) {
		panic("cache: AccessBatch output slice shorter than request slice")
	}
	if c.cfg.TrackUtags || c.cfg.PartitionLocked || c.cfg.LockReplacementState {
		// Feature-carrying configs share the full per-access path; the
		// batch still saves the per-call counter lookups.
		lastReq := -1
		var rs *Stats
		for i := range reqs {
			req := &reqs[i]
			if req.Requestor != lastReq {
				if req.Requestor < 0 {
					panic("cache: negative requestor")
				}
				rs = c.reqStats(req.Requestor)
				lastReq = req.Requestor
			}
			res := c.accessInto(*req, rs)
			if out != nil {
				out[i] = res
			}
		}
		return
	}

	// Plain configs — every figure/table driver — take the specialized
	// loop: no lock or utag handling, install inlined, geometry hoisted,
	// and counters accumulated in locals, flushed to st and rs once per
	// requestor run (every event counts into both blocks identically on
	// this path, and only the batch's final counter values are
	// observable, so the deferred flush is exact).
	st := &c.stats
	setMask, setShift, ways := c.setMask, c.setShift, c.ways
	repl := c.repl
	lastReq := -1
	var rs *Stats
	var nAcc, nHit, nMiss, nEv, nXev uint64
	for i := range reqs {
		req := &reqs[i]
		if req.Requestor != lastReq {
			if req.Requestor < 0 {
				panic("cache: negative requestor")
			}
			if rs != nil {
				flushCounters(st, rs, &nAcc, &nHit, &nMiss, &nEv, &nXev)
			}
			// Growing the table may reallocate it, so the cached
			// pointer is refreshed on every requestor change.
			rs = c.reqStats(req.Requestor)
			lastReq = req.Requestor
		}
		if req.Op != OpLoad {
			// Lock ops still flip line flag bits even outside the PL
			// configs; keep them on the shared path.
			res := c.accessInto(*req, rs)
			if out != nil {
				out[i] = res
			}
			continue
		}
		set := int(req.PhysLine & setMask)
		tag := req.PhysLine >> setShift
		base := set * ways
		lines := c.lines[base : base+ways]
		nAcc++

		// One pass finds both the hit way and the first invalid way: a
		// hit is never an invalid way, so breaking on the hit cannot
		// skip a fill slot the miss path would have used.
		hit, way := -1, -1
		for w := range lines {
			if lines[w].flags&lineValid == 0 {
				if way < 0 {
					way = w
				}
				continue
			}
			if lines[w].tag == tag {
				hit = w
				break
			}
		}
		if hit >= 0 {
			nHit++
			repl.Touch(set, hit)
			if out != nil {
				out[i] = Result{Hit: true, Way: hit}
			}
			continue
		}

		nMiss++
		if way < 0 {
			way = repl.Victim(set)
			ln := &lines[way]
			nEv++
			if int(ln.owner) != req.Requestor {
				nXev++
			}
			if out != nil {
				// Evicted must read the victim's tag before the install
				// overwrites it.
				out[i] = Result{Way: way, Evicted: ln.tag<<setShift | uint64(set), DidEvict: true}
			}
		} else if out != nil {
			out[i] = Result{Way: way}
		}
		ln := &lines[way]
		ln.tag = tag
		ln.flags = lineValid
		ln.owner = int32(req.Requestor)
		repl.Fill(set, way)
	}
	if rs != nil {
		flushCounters(st, rs, &nAcc, &nHit, &nMiss, &nEv, &nXev)
	}
}

// flushCounters adds the fast loop's local event counts to both the
// aggregate and the per-requestor block and zeroes them.
func flushCounters(st, rs *Stats, nAcc, nHit, nMiss, nEv, nXev *uint64) {
	st.Accesses += *nAcc
	rs.Accesses += *nAcc
	st.Hits += *nHit
	rs.Hits += *nHit
	st.Misses += *nMiss
	rs.Misses += *nMiss
	st.Evictions += *nEv
	rs.Evictions += *nEv
	st.CrossEvictions += *nXev
	rs.CrossEvictions += *nXev
	*nAcc, *nHit, *nMiss, *nEv, *nXev = 0, 0, 0, 0, 0
}
