// Package part implements the application-side partitioning of Fig. 1
// and §2(2): hierarchical, topology-matched domain decomposition —
// "Instead of a flat partitioning of the application domain, we foresee
// that future large-scale HPC applications will perform hierarchical and
// topological partitioning of their data into domains, to reduce
// communication distance and latency ... This hierarchical partitioning
// can significantly reduce the communication overhead."
//
// Three decompositions of a 2D cell domain are provided for E1: 1D
// strips (flat), 2D tiles assigned row-major (shape-aware but
// topology-blind), and the hierarchical partitioner that recursively
// splits the domain following the machine tree so that domain
// neighbours are also tree neighbours.
package part

import (
	"fmt"
	"math"

	"ecoscale/internal/topo"
)

// Partition assigns every cell of a W×H domain to one of P workers.
type Partition struct {
	Name string
	W, H int
	P    int
	// Assign[y*W+x] is the owning worker of cell (x, y).
	Assign []int
}

// Owner returns the worker owning cell (x, y).
func (p *Partition) Owner(x, y int) int { return p.Assign[y*p.W+x] }

func newPartition(name string, w, h, workers int) *Partition {
	if w <= 0 || h <= 0 || workers <= 0 {
		panic("part: domain and worker count must be positive")
	}
	return &Partition{Name: name, W: w, H: h, P: workers, Assign: make([]int, w*h)}
}

// Strips decomposes the domain into P horizontal strips — the flat 1D
// partitioning baseline.
func Strips(w, h, workers int) *Partition {
	p := newPartition("strips", w, h, workers)
	for y := 0; y < h; y++ {
		owner := y * workers / h
		for x := 0; x < w; x++ {
			p.Assign[y*w+x] = owner
		}
	}
	return p
}

// tileGrid returns the most square pr×pc factorization of workers.
func tileGrid(workers int) (pr, pc int) {
	pr = int(math.Sqrt(float64(workers)))
	for pr > 1 && workers%pr != 0 {
		pr--
	}
	if pr < 1 {
		pr = 1
	}
	return pr, workers / pr
}

// Tiles decomposes the domain into a near-square 2D grid of tiles
// assigned to workers in row-major order — good surface-to-volume, but
// blind to the machine topology.
func Tiles(w, h, workers int) *Partition {
	p := newPartition("tiles", w, h, workers)
	pr, pc := tileGrid(workers)
	for y := 0; y < h; y++ {
		ty := y * pr / h
		for x := 0; x < w; x++ {
			tx := x * pc / w
			p.Assign[y*w+x] = ty*pc + tx
		}
	}
	return p
}

// Hierarchical decomposes the domain by recursive bisection following
// the machine tree: at each tree level the current rectangle splits into
// fan-out sub-rectangles along its longer axis, so that workers that are
// close in the tree own adjacent sub-domains (Fig. 1).
func Hierarchical(w, h int, tree *topo.Tree) *Partition {
	p := newPartition(fmt.Sprintf("hier[%s]", tree.Name()), w, h, tree.NumWorkers())
	var cut func(x0, y0, x1, y1, level, firstWorker int)
	cut = func(x0, y0, x1, y1, level, firstWorker int) {
		if level == 0 {
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					p.Assign[y*w+x] = firstWorker
				}
			}
			return
		}
		fan := tree.FanOut[level-1]
		sub := tree.GroupSize(level - 1)
		// Split into a near-square fr×fc grid of sub-rectangles, with
		// the larger factor along the region's longer axis, so blocks
		// keep good surface-to-volume at every level.
		fr, fc := tileGrid(fan)
		if (x1-x0 >= y1-y0) != (fc >= fr) {
			fr, fc = fc, fr
		}
		for r := 0; r < fr; r++ {
			sy0 := y0 + (y1-y0)*r/fr
			sy1 := y0 + (y1-y0)*(r+1)/fr
			for cc := 0; cc < fc; cc++ {
				sx0 := x0 + (x1-x0)*cc/fc
				sx1 := x0 + (x1-x0)*(cc+1)/fc
				cut(sx0, sy0, sx1, sy1, level-1, firstWorker+(r*fc+cc)*sub)
			}
		}
	}
	cut(0, 0, w, h, tree.Levels()-1, 0)
	return p
}

// Stats quantifies a partition's communication cost on a topology for a
// 5-point stencil halo exchange.
type Stats struct {
	// BoundaryCells counts cell-pairs whose owners differ (each such
	// pair exchanges one halo cell per direction per step).
	BoundaryCells int
	// WeightedHops is Σ over boundary pairs of the hop distance between
	// their owners — the traffic×distance product that costs energy.
	WeightedHops int
	// MaxHops is the worst hop distance between neighbouring cells.
	MaxHops int
	// Balance is max/mean cells per worker (1.0 = perfect).
	Balance float64
}

// Evaluate computes halo-communication statistics on the tree.
func (p *Partition) Evaluate(t *topo.Tree) Stats {
	if t.NumWorkers() < p.P {
		panic("part: topology smaller than partition")
	}
	var s Stats
	count := func(a, b int) {
		if a == b {
			return
		}
		s.BoundaryCells++
		h := t.HopDistance(a, b)
		s.WeightedHops += h
		if h > s.MaxHops {
			s.MaxHops = h
		}
	}
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			o := p.Owner(x, y)
			if x+1 < p.W {
				count(o, p.Owner(x+1, y))
			}
			if y+1 < p.H {
				count(o, p.Owner(x, y+1))
			}
		}
	}
	cells := make([]int, p.P)
	for _, o := range p.Assign {
		cells[o]++
	}
	max := 0
	for _, c := range cells {
		if c > max {
			max = c
		}
	}
	mean := float64(p.W*p.H) / float64(p.P)
	if mean > 0 {
		s.Balance = float64(max) / mean
	}
	return s
}

// MeanHops returns WeightedHops/BoundaryCells (0 when no boundary).
func (s Stats) MeanHops() float64 {
	if s.BoundaryCells == 0 {
		return 0
	}
	return float64(s.WeightedHops) / float64(s.BoundaryCells)
}
