package replacement

import (
	"fmt"
	"strings"
)

// Kind names a replacement policy family.
type Kind int

// The policy families implemented by this package.
const (
	TrueLRU Kind = iota
	TreePLRU
	BitPLRU
	FIFO
	Random
)

// String returns the conventional name of the policy family.
func (k Kind) String() string {
	switch k {
	case TrueLRU:
		return "LRU"
	case TreePLRU:
		return "Tree-PLRU"
	case BitPLRU:
		return "Bit-PLRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a policy name (case-insensitive, with or without the dash)
// back to its Kind, for command-line flags.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.ReplaceAll(s, "-", "")) {
	case "lru", "truelru":
		return TrueLRU, nil
	case "treeplru", "plru", "tree":
		return TreePLRU, nil
	case "bitplru", "mru", "bit":
		return BitPLRU, nil
	case "fifo", "roundrobin":
		return FIFO, nil
	case "random", "rand":
		return Random, nil
	default:
		return 0, fmt.Errorf("replacement: unknown policy %q", s)
	}
}

// Kinds lists every implemented policy family, in presentation order.
func Kinds() []Kind { return []Kind{TrueLRU, TreePLRU, BitPLRU, FIFO, Random} }

// checkWay guards a way index. The packed SetArray hot path calls it
// only when built with -tags lruleakdebug; the reference Policy oracles
// in this package's tests call it unconditionally.
func checkWay(way, ways int) {
	if way < 0 || way >= ways {
		panic(fmt.Sprintf("replacement: way %d out of range [0,%d)", way, ways))
	}
}
