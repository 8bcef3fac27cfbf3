// Package replacement implements the cache replacement policies studied in
// the paper: true LRU, Tree-PLRU (So & Rechtschaffen), Bit-PLRU / MRU
// (Malamy et al.), FIFO, and Random. The Tree-PLRU and Bit-PLRU update and
// victim-selection rules follow Section II-B of the paper bit-for-bit; the
// Table I eviction-probability study and every channel experiment run on
// top of these implementations.
//
// The production engine is SetArray: the packed state of every set of a
// cache in contiguous slices, dispatching directly on Kind. The containing
// cache fills invalid ways first; the policy is only consulted for a
// victim when the set is full.
//
// This package's tests hold a second, deliberately naive implementation
// of each policy — one object per set behind a Policy interface — as the
// reference semantics; the equivalence fuzz target keeps SetArray in
// lock-step with it.
package replacement
