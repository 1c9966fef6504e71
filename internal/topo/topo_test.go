package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTreeBasics(t *testing.T) {
	tr := NewTree(8, 4) // 8 workers/CN, 4 CNs
	if tr.NumWorkers() != 32 {
		t.Fatalf("NumWorkers = %d, want 32", tr.NumWorkers())
	}
	if tr.Levels() != 3 {
		t.Errorf("Levels = %d, want 3", tr.Levels())
	}
	if tr.NumComputeNodes() != 4 {
		t.Errorf("NumComputeNodes = %d, want 4", tr.NumComputeNodes())
	}
	if tr.MaxHops() != 2 {
		t.Errorf("MaxHops = %d, want 2", tr.MaxHops())
	}
	if tr.Name() != "tree[8x4]" {
		t.Errorf("Name = %q", tr.Name())
	}
}

func TestTreeGroups(t *testing.T) {
	tr := NewTree(4, 2, 2) // 16 workers
	if tr.GroupOf(0, 7) != 7 {
		t.Error("GroupOf level 0 should be identity")
	}
	if tr.ComputeNodeOf(7) != 1 {
		t.Errorf("ComputeNodeOf(7) = %d, want 1", tr.ComputeNodeOf(7))
	}
	if tr.GroupOf(2, 7) != 0 || tr.GroupOf(2, 8) != 1 {
		t.Error("level-2 grouping wrong")
	}
	lo, hi := tr.WorkersIn(1, 2)
	if lo != 8 || hi != 12 {
		t.Errorf("WorkersIn(1,2) = [%d,%d), want [8,12)", lo, hi)
	}
	if tr.GroupSize(1) != 4 || tr.GroupSize(2) != 8 {
		t.Error("GroupSize wrong")
	}
}

func TestTreeHopDistance(t *testing.T) {
	tr := NewTree(4, 2, 2)
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1}, // same compute node
		{0, 4, 2}, // same chassis, different CN
		{0, 8, 3}, // across the root
		{15, 0, 3},
	}
	for _, c := range cases {
		if got := tr.HopDistance(c.a, c.b); got != c.want {
			t.Errorf("HopDistance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTreeLevelNames(t *testing.T) {
	tr := NewTree(2, 2, 2, 2, 2, 2, 2) // 8 levels > default names
	if tr.LevelNames[0] != "worker" || tr.LevelNames[1] != "compute-node" {
		t.Errorf("level names = %v", tr.LevelNames[:2])
	}
	if tr.LevelNames[7] != "level-7" {
		t.Errorf("synthetic level name = %q", tr.LevelNames[7])
	}
	if len(tr.LevelNames) != tr.Levels() {
		t.Errorf("have %d names for %d levels", len(tr.LevelNames), tr.Levels())
	}
}

func TestTreeString(t *testing.T) {
	s := NewTree(8, 4).String()
	if !strings.Contains(s, "32 workers") || !strings.Contains(s, "compute-node") {
		t.Errorf("String output missing content:\n%s", s)
	}
}

func TestTreePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":       func() { NewTree() },
		"zero fanout": func() { NewTree(4, 0) },
		"bad worker":  func() { NewTree(4).HopDistance(0, 4) },
		"neg worker":  func() { NewTree(4).GroupOf(0, -1) },
		"bad group":   func() { NewTree(4).WorkersIn(1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Properties of tree hop distance: identity, symmetry, triangle-ish bound
// (distance never exceeds diameter), and the paper's level law.
func TestTreeDistanceProperties(t *testing.T) {
	tr := NewTree(4, 4, 4) // 64 workers
	prop := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % tr.NumWorkers()
		b := int(bRaw) % tr.NumWorkers()
		d := tr.HopDistance(a, b)
		if tr.HopDistance(b, a) != d {
			return false
		}
		if (a == b) != (d == 0) {
			return false
		}
		if d > tr.MaxHops() {
			return false
		}
		// Level law: d equals the LCA level.
		return d == tr.LCALevel(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: every worker is in exactly one group per level and group
// ranges tile the worker space.
func TestTreeGroupTiling(t *testing.T) {
	tr := NewTree(3, 5, 2) // 30 workers, non-power-of-two
	for level := 0; level < tr.Levels(); level++ {
		covered := make([]int, tr.NumWorkers())
		groups := tr.NumWorkers() / tr.GroupSize(level)
		for g := 0; g < groups; g++ {
			lo, hi := tr.WorkersIn(level, g)
			for w := lo; w < hi; w++ {
				covered[w]++
				if tr.GroupOf(level, w) != g {
					t.Fatalf("GroupOf(%d,%d) = %d, want %d", level, w, tr.GroupOf(level, w), g)
				}
			}
		}
		for w, c := range covered {
			if c != 1 {
				t.Fatalf("level %d: worker %d covered %d times", level, w, c)
			}
		}
	}
}

// The headline claim of §2: a deep hierarchy keeps most pairs close;
// verify the tree's average neighbour distance under locality is far
// below diameter.
func TestTreeLocalityBeatsDiameter(t *testing.T) {
	tr := NewTree(8, 8, 8) // 512 workers, diameter 3
	var sumAdj int
	n := tr.NumWorkers()
	for w := 0; w+1 < n; w++ {
		sumAdj += tr.HopDistance(w, w+1)
	}
	avg := float64(sumAdj) / float64(n-1)
	if avg > 1.3 {
		t.Errorf("average adjacent-worker distance %.2f too high; locality broken", avg)
	}
}
