package replacement

// The reference replacement policies: one deliberately naive object per
// cache set, written for obvious correctness rather than speed. They are
// the oracles the packed SetArray is checked against
// (FuzzSetArrayEquivalence, TestSetArrayMatchesPoliciesSequential) and
// the subjects of the per-policy invariant tests (FuzzPolicyInvariants,
// policy_test.go). Production code runs on SetArray only.

import (
	"fmt"
	"strings"

	"repro/internal/rng"
)

// Policy tracks replacement state for one cache set and chooses eviction
// victims.
type Policy interface {
	// Name identifies the policy (for reports).
	Name() string
	// Ways returns the associativity this instance was built for.
	Ways() int
	// OnAccess records a use of the given way. Called on every hit and,
	// by convention, after every fill (both hits and misses update LRU
	// state — the property the whole attack rests on).
	OnAccess(way int)
	// Victim returns the way that would be evicted next. It must not
	// mutate state: policies are consulted speculatively (e.g. by the
	// PL cache, which may veto the eviction).
	Victim() int
	// Reset returns the state to its power-on value.
	Reset()
	// Clone returns an independent copy with identical state.
	Clone() Policy
	// StateString renders the internal state compactly, in the same
	// format as SetArray.StateString (e.g. "tree:0110101" or
	// "mru:10011010").
	StateString() string
}

// New constructs a policy of the given kind for a set with the given
// associativity. r supplies randomness and is only consulted by Random; it
// may be nil for the other kinds. New panics if ways < 1, if Tree-PLRU is
// requested with a non-power-of-two associativity, or if Random is
// requested without a generator.
func New(kind Kind, ways int, r *rng.Rand) Policy {
	if ways < 1 {
		panic("replacement: ways must be >= 1")
	}
	switch kind {
	case TrueLRU:
		return newTrueLRU(ways)
	case TreePLRU:
		return newTreePLRU(ways)
	case BitPLRU:
		return newBitPLRU(ways)
	case FIFO:
		return newFIFO(ways)
	case Random:
		if r == nil {
			panic("replacement: Random policy requires a generator")
		}
		return newRandom(ways, r)
	default:
		panic(fmt.Sprintf("replacement: unknown kind %d", int(kind)))
	}
}

// trueLRU keeps an exact recency order of the ways: age[w] is the number of
// distinct ways used more recently than w, so age 0 is the most recently
// used way and age ways-1 the least recently used. This is the log2(N)-bits-
// per-line "true" LRU of Section II-B, which the paper notes is prohibitive
// in hardware beyond 4 ways but serves as the reference policy in Table I
// (it always evicts line 0 under Sequences 1 and 2).
type trueLRU struct {
	age []int
}

func newTrueLRU(ways int) *trueLRU {
	p := &trueLRU{age: make([]int, ways)}
	p.Reset()
	return p
}

func (p *trueLRU) Name() string { return "LRU" }
func (p *trueLRU) Ways() int    { return len(p.age) }

func (p *trueLRU) Reset() {
	// Power-on order: way 0 is oldest so that deterministic simulations
	// of a freshly reset set evict way 0 first, matching the convention
	// of the paper's in-house simulator.
	n := len(p.age)
	for w := range p.age {
		p.age[w] = n - 1 - w
	}
}

func (p *trueLRU) OnAccess(way int) {
	checkWay(way, len(p.age))
	old := p.age[way]
	for w := range p.age {
		if p.age[w] < old {
			p.age[w]++
		}
	}
	p.age[way] = 0
}

func (p *trueLRU) Victim() int {
	oldest, maxAge := 0, -1
	for w, a := range p.age {
		if a > maxAge {
			oldest, maxAge = w, a
		}
	}
	return oldest
}

func (p *trueLRU) Clone() Policy {
	c := &trueLRU{age: make([]int, len(p.age))}
	copy(c.age, p.age)
	return c
}

func (p *trueLRU) StateString() string {
	parts := make([]string, len(p.age))
	for w, a := range p.age {
		parts[w] = fmt.Sprintf("%d", a)
	}
	return "age:" + strings.Join(parts, ",")
}

// fifo implements First-In First-Out (Round-Robin) replacement. Its state
// advances only on fills, never on hits — which is exactly why Section IX-A
// proposes it as a mitigation: a sender whose accesses all hit cannot
// modulate FIFO state at all.
type fifo struct {
	ways int
	next int
}

func newFIFO(ways int) *fifo { return &fifo{ways: ways} }

func (p *fifo) Name() string { return "FIFO" }
func (p *fifo) Ways() int    { return p.ways }
func (p *fifo) Reset()       { p.next = 0 }

// OnAccess is a no-op on hits. The caller signals fills separately, by
// calling Filled after installing a line into the victim way.
func (p *fifo) OnAccess(way int) { checkWay(way, p.ways) }

// Filled advances the round-robin pointer past the just-filled way.
func (p *fifo) Filled(way int) {
	checkWay(way, p.ways)
	if way == p.next {
		p.next = (p.next + 1) % p.ways
	}
}

func (p *fifo) Victim() int { return p.next }

func (p *fifo) Clone() Policy { c := *p; return &c }

func (p *fifo) StateString() string { return fmt.Sprintf("fifo:%d", p.next) }

// random selects victims uniformly at random and keeps no state, the other
// mitigation of Section IX-A. Clones share the generator: the experiments
// only require that victims are random, not that clones have independent
// streams.
type random struct {
	ways int
	r    *rng.Rand
}

func newRandom(ways int, r *rng.Rand) *random { return &random{ways: ways, r: r} }

func (p *random) Name() string        { return "Random" }
func (p *random) Ways() int           { return p.ways }
func (p *random) Reset()              {}
func (p *random) OnAccess(way int)    { checkWay(way, p.ways) }
func (p *random) Victim() int         { return p.r.Intn(p.ways) }
func (p *random) Clone() Policy       { c := *p; return &c }
func (p *random) StateString() string { return "random" }

// treePLRU implements the Tree-PLRU policy of Section II-B: a binary tree
// with ways-1 one-bit nodes stored in heap order (node 0 is the root; the
// children of node i are 2i+1 and 2i+2; leaves correspond to ways in
// left-to-right order).
//
// Bit convention: node bit 0 means the LEFT subtree is less recently used
// (victim search descends left), bit 1 means the RIGHT subtree is less
// recently used. On an access to way w, every node on the root-to-leaf path
// is set to point AWAY from w's subtree, marking w's side most recently
// used.
//
// The associativity must be a power of two (as in the 8-way L1D caches the
// paper evaluates).
type treePLRU struct {
	ways  int
	bits  []byte // ways-1 node bits in heap order
	depth int    // log2(ways)
}

func newTreePLRU(ways int) *treePLRU {
	if ways&(ways-1) != 0 {
		panic("replacement: Tree-PLRU requires power-of-two associativity")
	}
	d := 0
	for 1<<d < ways {
		d++
	}
	return &treePLRU{ways: ways, bits: make([]byte, ways-1), depth: d}
}

func (p *treePLRU) Name() string { return "Tree-PLRU" }
func (p *treePLRU) Ways() int    { return p.ways }

func (p *treePLRU) Reset() {
	for i := range p.bits {
		p.bits[i] = 0
	}
}

// OnAccess updates all nodes on the path from the root to way's leaf so
// that each points to the child that is NOT an ancestor of way.
func (p *treePLRU) OnAccess(way int) {
	checkWay(way, p.ways)
	if p.ways == 1 {
		return
	}
	node := 0
	// Walk from the most significant direction bit to the least: at tree
	// level l (root = level 0) the direction into way's subtree is bit
	// depth-1-l of way (0 = left, 1 = right).
	for level := 0; level < p.depth; level++ {
		dir := (way >> (p.depth - 1 - level)) & 1
		if dir == 0 {
			// way lives in the left subtree: mark right as LRU side.
			p.bits[node] = 1
		} else {
			p.bits[node] = 0
		}
		node = 2*node + 1 + dir
	}
}

// Victim walks from the root toward the less recently used child at every
// node and returns the leaf (way) it reaches.
func (p *treePLRU) Victim() int {
	if p.ways == 1 {
		return 0
	}
	node, way := 0, 0
	for level := 0; level < p.depth; level++ {
		dir := int(p.bits[node])
		way = way<<1 | dir
		node = 2*node + 1 + dir
	}
	return way
}

func (p *treePLRU) Clone() Policy {
	c := &treePLRU{ways: p.ways, bits: make([]byte, len(p.bits)), depth: p.depth}
	copy(c.bits, p.bits)
	return c
}

func (p *treePLRU) StateString() string {
	var b strings.Builder
	b.WriteString("tree:")
	for _, v := range p.bits {
		b.WriteByte('0' + v)
	}
	return b.String()
}

// bitPLRU implements the Bit-PLRU / MRU policy of Section II-B: one MRU bit
// per way. Accessing a way sets its bit; once every bit is set, ALL bits are
// reset to 0 (including the just-accessed way's — the paper's Section II-B
// wording is literal here, and the Table I convergence behaviour depends on
// it). The victim is the lowest-indexed way whose MRU bit is clear, or way
// 0 immediately after a rollover.
type bitPLRU struct {
	mru []byte // 0 or 1 per way
}

func newBitPLRU(ways int) *bitPLRU {
	return &bitPLRU{mru: make([]byte, ways)}
}

func (p *bitPLRU) Name() string { return "Bit-PLRU" }
func (p *bitPLRU) Ways() int    { return len(p.mru) }

func (p *bitPLRU) Reset() {
	for i := range p.mru {
		p.mru[i] = 0
	}
}

func (p *bitPLRU) OnAccess(way int) {
	checkWay(way, len(p.mru))
	p.mru[way] = 1
	for _, b := range p.mru {
		if b == 0 {
			return
		}
	}
	// All bits set: generation rollover. Every bit clears, the accessed
	// way's included.
	for i := range p.mru {
		p.mru[i] = 0
	}
}

func (p *bitPLRU) Victim() int {
	for w, b := range p.mru {
		if b == 0 {
			return w
		}
	}
	// Unreachable: rollover guarantees at least one clear bit.
	return 0
}

func (p *bitPLRU) Clone() Policy {
	c := &bitPLRU{mru: make([]byte, len(p.mru))}
	copy(c.mru, p.mru)
	return c
}

func (p *bitPLRU) StateString() string {
	var b strings.Builder
	b.WriteString("mru:")
	for _, v := range p.mru {
		b.WriteByte('0' + v)
	}
	return b.String()
}
