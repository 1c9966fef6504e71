// Package topo models the hierarchical machine organization of ECOSCALE
// (Fig. 1 and Fig. 3 of the paper): Worker nodes grouped into Compute
// Nodes (PGAS domains), which are grouped further into chassis, cabinets
// and ultimately the full system, in a tree-like fashion. "Starting from
// the leaves, each level up the tree would add one hop in the maximum
// communication distance between any two processing units" (§2).
package topo

import (
	"fmt"
	"strings"
)

// DefaultLevelNames are the conventional names of tree levels from the
// leaf upward, matching the paper's description of the physical packaging
// hierarchy.
var DefaultLevelNames = []string{"worker", "compute-node", "chassis", "cabinet", "row", "system"}

// Tree is the ECOSCALE hierarchical interconnect: a balanced tree in
// which level 0 is the individual Worker and each higher level groups
// FanOut[i] units of the level below.
type Tree struct {
	// FanOut[i] is how many level-i units make one level-i+1 unit;
	// FanOut[0] is Workers per Compute Node.
	FanOut []int
	// LevelNames names each level for diagnostics; defaults are applied
	// by NewTree when nil.
	LevelNames []string

	workers int
	// sizes[i] = number of workers under one level-i unit (sizes[0]=1).
	sizes []int
}

// NewTree builds a tree from per-level fan-outs (leaf upward). A tree
// with FanOut = [8, 4] has 8 workers per compute node and 4 compute nodes
// in the system: 32 workers total.
func NewTree(fanOut ...int) *Tree {
	if len(fanOut) == 0 {
		panic("topo: tree needs at least one fan-out")
	}
	t := &Tree{FanOut: append([]int(nil), fanOut...)}
	t.sizes = make([]int, len(fanOut)+1)
	t.sizes[0] = 1
	for i, f := range fanOut {
		if f <= 0 {
			panic(fmt.Sprintf("topo: fan-out %d at level %d must be positive", f, i))
		}
		t.sizes[i+1] = t.sizes[i] * f
	}
	t.workers = t.sizes[len(fanOut)]
	n := len(fanOut) + 1
	if n > len(DefaultLevelNames) {
		n = len(DefaultLevelNames)
	}
	t.LevelNames = append([]string(nil), DefaultLevelNames[:n]...)
	for len(t.LevelNames) < len(fanOut)+1 {
		t.LevelNames = append(t.LevelNames, fmt.Sprintf("level-%d", len(t.LevelNames)))
	}
	return t
}

// Name identifies the tree for reports, e.g. "tree[4x2]".
func (t *Tree) Name() string {
	parts := make([]string, len(t.FanOut))
	for i, f := range t.FanOut {
		parts[i] = fmt.Sprint(f)
	}
	return "tree[" + strings.Join(parts, "x") + "]"
}

// NumWorkers returns the number of leaf Workers.
func (t *Tree) NumWorkers() int { return t.workers }

// Levels returns the number of levels including the leaf level.
func (t *Tree) Levels() int { return len(t.FanOut) + 1 }

// GroupSize returns how many workers one level-level unit contains.
func (t *Tree) GroupSize(level int) int { return t.sizes[level] }

// GroupOf returns the index of the level-level unit containing worker w.
// GroupOf(0, w) == w; GroupOf(Levels()-1, w) == 0 for all w.
func (t *Tree) GroupOf(level, w int) int {
	t.checkWorker(w)
	return w / t.sizes[level]
}

// WorkersIn returns the half-open worker-ID range [lo, hi) of the
// level-level unit with index group.
func (t *Tree) WorkersIn(level, group int) (lo, hi int) {
	size := t.sizes[level]
	lo = group * size
	hi = lo + size
	if lo < 0 || hi > t.workers {
		panic(fmt.Sprintf("topo: group %d out of range at level %d", group, level))
	}
	return lo, hi
}

// LCALevel returns the lowest level at which workers a and b share a
// unit: 0 when a == b, 1 when they share a compute node, etc.
func (t *Tree) LCALevel(a, b int) int {
	t.checkWorker(a)
	t.checkWorker(b)
	for level := 0; ; level++ {
		if a/t.sizes[level] == b/t.sizes[level] {
			return level
		}
	}
}

// HopDistance returns the number of interconnect hops a message travels
// between workers a and b. Per §2, each level up the tree adds one hop,
// so the distance is the LCA level (same worker: 0 hops; same compute
// node: 1 hop across the node's interconnect layer; and so on).
func (t *Tree) HopDistance(a, b int) int { return t.LCALevel(a, b) }

// MaxHops returns the network diameter in hops.
func (t *Tree) MaxHops() int { return len(t.FanOut) }

// ComputeNodeOf returns the compute-node (PGAS domain) index of worker w.
func (t *Tree) ComputeNodeOf(w int) int { return t.GroupOf(1, w) }

// NumComputeNodes returns the number of PGAS domains.
func (t *Tree) NumComputeNodes() int { return t.workers / t.sizes[1] }

// String renders the hierarchy, e.g. for reproducing Fig. 1/Fig. 3.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d workers, %d levels, diameter %d hops\n",
		t.Name(), t.workers, t.Levels(), t.MaxHops())
	for level := t.Levels() - 1; level >= 0; level-- {
		units := t.workers / t.sizes[level]
		fmt.Fprintf(&b, "  level %d (%-12s): %4d unit(s) x %d worker(s)\n",
			level, t.LevelNames[level], units, t.sizes[level])
	}
	return b.String()
}

func (t *Tree) checkWorker(w int) {
	if w < 0 || w >= t.workers {
		panic(fmt.Sprintf("topo: worker %d out of range [0,%d)", w, t.workers))
	}
}
