package topo

import "fmt"

// Census tracks which Workers of a Tree are live — have had per-worker
// state materialized by some event — and aggregates liveness up the
// hierarchy. It is the bookkeeping behind the flyweight machine model: a
// quiescent subtree (a compute node, chassis, … with zero live workers)
// stays a single summary record, and aggregate queries answer for it in
// O(1) without waking anything. A few bytes per worker plus one counter
// per group keeps the census itself cheap at 100k+ workers.
type Census struct {
	tree *Tree
	live []bool
	// counts[level][group] = live workers under the level-level unit
	// `group`, for levels 1..Levels()-1 (level 0 is the worker itself,
	// answered by the live slice).
	counts [][]int
	total  int
}

// NewCensus returns an all-quiescent census over the tree.
func NewCensus(t *Tree) *Census {
	c := &Census{tree: t, live: make([]bool, t.NumWorkers())}
	c.counts = make([][]int, t.Levels())
	for level := 1; level < t.Levels(); level++ {
		c.counts[level] = make([]int, t.NumWorkers()/t.GroupSize(level))
	}
	return c
}

// MarkLive records worker w as live, updating every enclosing group's
// count. It reports whether w was newly marked (false when already live).
func (c *Census) MarkLive(w int) bool {
	c.tree.checkWorker(w)
	if c.live[w] {
		return false
	}
	c.live[w] = true
	c.total++
	for level := 1; level < c.tree.Levels(); level++ {
		c.counts[level][c.tree.GroupOf(level, w)]++
	}
	return true
}

// IsLive reports whether worker w has been marked live.
func (c *Census) IsLive(w int) bool {
	c.tree.checkWorker(w)
	return c.live[w]
}

// LiveWorkers returns how many workers are live machine-wide.
func (c *Census) LiveWorkers() int { return c.total }

// LiveIn returns how many workers are live under the level-level unit
// with index group.
func (c *Census) LiveIn(level, group int) int {
	if level <= 0 || level >= c.tree.Levels() {
		panic(fmt.Sprintf("topo: census level %d out of range (1..%d)", level, c.tree.Levels()-1))
	}
	return c.counts[level][group]
}

// Quiescent reports whether the level-level unit with index group has no
// live workers — the O(1) "is this subtree still a summary record" test.
func (c *Census) Quiescent(level, group int) bool { return c.LiveIn(level, group) == 0 }
