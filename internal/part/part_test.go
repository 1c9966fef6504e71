package part

import (
	"testing"
	"testing/quick"

	"ecoscale/internal/topo"
)

func TestStripsCoverAndBalance(t *testing.T) {
	p := Strips(16, 16, 4)
	seen := map[int]int{}
	for _, o := range p.Assign {
		if o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range", o)
		}
		seen[o]++
	}
	if len(seen) != 4 {
		t.Errorf("only %d workers used", len(seen))
	}
	for w, c := range seen {
		if c != 64 {
			t.Errorf("worker %d owns %d cells, want 64", w, c)
		}
	}
	s := p.Evaluate(topo.NewTree(4))
	if s.Balance != 1.0 {
		t.Errorf("balance = %v", s.Balance)
	}
	// 3 internal strip boundaries × 16 cells.
	if s.BoundaryCells != 48 {
		t.Errorf("boundary cells = %d, want 48", s.BoundaryCells)
	}
}

func TestTilesLowerBoundaryThanStrips(t *testing.T) {
	// 2D tiles have better surface-to-volume than 1D strips for P ≥ 4.
	strips := Strips(64, 64, 16).Evaluate(topo.NewTree(16))
	tiles := Tiles(64, 64, 16).Evaluate(topo.NewTree(16))
	if tiles.BoundaryCells >= strips.BoundaryCells {
		t.Errorf("tiles boundary (%d) should be below strips (%d)",
			tiles.BoundaryCells, strips.BoundaryCells)
	}
}

func TestHierarchicalMatchesTree(t *testing.T) {
	tree := topo.NewTree(4, 4, 4) // 64 workers
	p := Hierarchical(64, 64, tree)
	seen := map[int]bool{}
	for _, o := range p.Assign {
		seen[o] = true
	}
	if len(seen) != 64 {
		t.Fatalf("hierarchical used %d/64 workers", len(seen))
	}
	s := p.Evaluate(tree)
	if s.Balance > 1.05 {
		t.Errorf("balance %v too skewed", s.Balance)
	}
}

// The E1 headline: on a tree machine, hierarchical partitioning yields
// lower weighted (traffic × distance) cost than both strips and
// topology-blind tiles.
func TestHierarchicalReducesWeightedHops(t *testing.T) {
	tree := topo.NewTree(4, 4, 4)
	hier := Hierarchical(128, 128, tree).Evaluate(tree)
	tiles := Tiles(128, 128, 64).Evaluate(tree)
	strips := Strips(128, 128, 64).Evaluate(tree)
	if hier.WeightedHops >= tiles.WeightedHops {
		t.Errorf("hier weighted hops (%d) should be below blind tiles (%d)",
			hier.WeightedHops, tiles.WeightedHops)
	}
	if hier.WeightedHops >= strips.WeightedHops {
		t.Errorf("hier weighted hops (%d) should be below strips (%d)",
			hier.WeightedHops, strips.WeightedHops)
	}
	if hier.MeanHops() >= tiles.MeanHops() {
		t.Errorf("hier mean hops (%.2f) should be below tiles (%.2f)",
			hier.MeanHops(), tiles.MeanHops())
	}
}

func TestOwnerAccessor(t *testing.T) {
	p := Tiles(8, 8, 4)
	if p.Owner(0, 0) != 0 {
		t.Error("origin not owned by worker 0")
	}
	if p.Owner(7, 7) != 3 {
		t.Errorf("far corner owned by %d, want 3", p.Owner(7, 7))
	}
}

func TestEvaluatePanicsOnSmallTopology(t *testing.T) {
	p := Tiles(8, 8, 16)
	defer func() {
		if recover() == nil {
			t.Error("small topology did not panic")
		}
	}()
	p.Evaluate(topo.NewTree(4))
}

func TestNewPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid shape did not panic")
		}
	}()
	Strips(0, 4, 2)
}

func TestMeanHopsEmpty(t *testing.T) {
	if (Stats{}).MeanHops() != 0 {
		t.Error("empty stats mean hops should be 0")
	}
}

// Property: every partitioner assigns every cell to a valid worker and
// uses all workers when the domain is large enough.
func TestPartitionValidityProperty(t *testing.T) {
	prop := func(wRaw, hRaw, fanRaw uint8) bool {
		fan := int(fanRaw%3) + 2 // 2..4
		tree := topo.NewTree(fan, fan)
		workers := tree.NumWorkers()
		w := int(wRaw%32) + workers
		h := int(hRaw%32) + workers
		for _, p := range []*Partition{
			Strips(w, h, workers),
			Tiles(w, h, workers),
			Hierarchical(w, h, tree),
		} {
			seen := map[int]bool{}
			for _, o := range p.Assign {
				if o < 0 || o >= workers {
					return false
				}
				seen[o] = true
			}
			if len(seen) != workers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: hierarchical never loses to blind tiles on weighted hops for
// square domains on balanced trees.
func TestHierarchicalDominanceProperty(t *testing.T) {
	prop := func(fanRaw, sizeRaw uint8) bool {
		fan := int(fanRaw%3) + 2
		tree := topo.NewTree(fan, fan)
		n := int(sizeRaw%48) + tree.NumWorkers()
		hier := Hierarchical(n, n, tree).Evaluate(tree)
		tiles := Tiles(n, n, tree.NumWorkers()).Evaluate(tree)
		return hier.WeightedHops <= tiles.WeightedHops
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
