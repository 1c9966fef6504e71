// Package fabric models the reconfigurable hardware of an ECOSCALE
// Worker: a grid of reconfigurable regions with LUT/FF/BRAM/DSP resource
// budgets, a GoAhead-style floorplanner that places accelerator modules
// into minimal bounding boxes (§4.3, [10]), a partial-reconfiguration
// controller whose load latency is proportional to bitstream size, RLE
// configuration-data compression (§4.3, [11]: "By minimizing module
// bounding boxes and by using configuration data compression, we will
// reduce memory requirements, configuration latency and configuration
// power consumption at the same time"), and defragmentation of the
// reconfigurable resources (§4.3 middleware virtualization features).
package fabric

import (
	"fmt"
	"math"
	"sort"

	"ecoscale/internal/energy"
	"ecoscale/internal/intern"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// Resources is a vector of FPGA resource counts.
type Resources struct {
	LUT  int
	FF   int
	BRAM int
	DSP  int
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.LUT + o.LUT, r.FF + o.FF, r.BRAM + o.BRAM, r.DSP + o.DSP}
}

// Scale returns r * k.
func (r Resources) Scale(k int) Resources {
	return Resources{r.LUT * k, r.FF * k, r.BRAM * k, r.DSP * k}
}

// FitsIn reports whether r fits within budget.
func (r Resources) FitsIn(budget Resources) bool {
	return r.LUT <= budget.LUT && r.FF <= budget.FF && r.BRAM <= budget.BRAM && r.DSP <= budget.DSP
}

// IsZero reports whether all counts are zero.
func (r Resources) IsZero() bool { return r == Resources{} }

func (r Resources) String() string {
	return fmt.Sprintf("{LUT:%d FF:%d BRAM:%d DSP:%d}", r.LUT, r.FF, r.BRAM, r.DSP)
}

// RegionsNeeded returns how many regions of size perRegion are needed to
// hold r (the max over resource dimensions).
func (r Resources) RegionsNeeded(perRegion Resources) int {
	ceil := func(a, b int) int {
		if b <= 0 {
			if a > 0 {
				return 1 << 30 // unsatisfiable
			}
			return 0
		}
		return (a + b - 1) / b
	}
	n := ceil(r.LUT, perRegion.LUT)
	if c := ceil(r.FF, perRegion.FF); c > n {
		n = c
	}
	if c := ceil(r.BRAM, perRegion.BRAM); c > n {
		n = c
	}
	if c := ceil(r.DSP, perRegion.DSP); c > n {
		n = c
	}
	if n == 0 {
		n = 1
	}
	return n
}

// Config shapes a fabric.
type Config struct {
	// Rows and Cols define the reconfigurable region grid.
	Rows, Cols int
	// PerRegion is the resource budget of one region.
	PerRegion Resources
	// BytesPerRegion is the configuration-bitstream size of one region.
	BytesPerRegion int
	// PortBytesPerNs is the configuration-port (ICAP-class) bandwidth.
	PortBytesPerNs float64
}

// MaxRegions bounds the region grid, Rows x Cols.
const MaxRegions = 1 << 16

// Validate returns the first problem with the config, or nil.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 || c.Rows > MaxRegions/c.Cols {
		return fmt.Errorf("fabric: %dx%d fabric grid; it needs 1 to %d regions in a positive number of rows and columns", c.Rows, c.Cols, MaxRegions)
	}
	if !(c.PortBytesPerNs > 0) || math.IsInf(c.PortBytesPerNs, 0) {
		return fmt.Errorf("fabric: PortBytesPerNs = %g; the configuration port bandwidth must be positive and finite", c.PortBytesPerNs)
	}
	if c.BytesPerRegion < 0 {
		return fmt.Errorf("fabric: BytesPerRegion = %d; a region's bitstream size cannot be negative", c.BytesPerRegion)
	}
	return nil
}

// DefaultConfig returns a mid-size Zynq-class fabric: an 8x8 grid of
// regions, ~4 MiB full bitstream, 400 MB/s configuration port.
func DefaultConfig() Config {
	return Config{
		Rows:           8,
		Cols:           8,
		PerRegion:      Resources{LUT: 4000, FF: 8000, BRAM: 12, DSP: 24},
		BytesPerRegion: 64 * 1024,
		PortBytesPerNs: 0.4,
	}
}

// Module describes a relocatable accelerator module produced by the HLS
// flow: its resource demand and identity. Bitstream content is derived
// deterministically from the name.
type Module struct {
	Name string
	Req  Resources
}

// Placement records a module loaded (or reserved) on a rectangle of
// regions.
type Placement struct {
	Module Module
	Row    int
	Col    int
	Rows   int
	Cols   int
	id     int
}

// Area returns the number of regions the bounding box occupies.
func (p *Placement) Area() int { return p.Rows * p.Cols }

func (p *Placement) String() string {
	return fmt.Sprintf("%s@(%d,%d)+(%dx%d)", p.Module.Name, p.Row, p.Col, p.Rows, p.Cols)
}

// Fabric is one Worker's reconfigurable block.
//
// An idle fabric is a flyweight: the configuration is an interned pointer
// shared by every fabric built from an equal Config, and the region grid,
// placement table and configuration port are materialized on first use
// (first Place or Load). An unmaterialized grid reads as entirely free.
type Fabric struct {
	// Trace, when non-nil, records reconfiguration spans on lane
	// (TracePID, TIDFabric).
	Trace *trace.Tracer
	// TracePID is the trace process id of the owning Worker.
	TracePID int
	// Reg, when non-nil, receives load counters and the reconfiguration
	// latency histogram.
	Reg *trace.Registry

	cfg        *Config // interned; shared across equal configurations
	eng        *sim.Engine
	meter      *energy.Meter
	grid       [][]int // region → placement id, -1 = free; nil = all free
	placements map[int]*Placement
	nextID     int
	port       *sim.Resource // nil until the first bitstream load
	// failed marks permanently unusable regions (flat row-major bitmap);
	// nil until the first FailRegion, so a healthy fabric pays one nil
	// check per rectFree cell and nothing else.
	failed  []bool
	nfailed int

	loads    uint64
	failures uint64
}

// New creates an empty fabric.
func New(eng *sim.Engine, cfg Config, meter *energy.Meter) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Fabric{cfg: intern.Canonical(cfg), eng: eng, meter: meter}
}

// materializeGrid allocates the region grid (one flat backing array) and
// the placement table on first placement activity.
func (f *Fabric) materializeGrid() {
	if f.grid != nil {
		return
	}
	cells := make([]int, f.cfg.Rows*f.cfg.Cols)
	for i := range cells {
		cells[i] = -1
	}
	f.grid = make([][]int, f.cfg.Rows)
	for i := range f.grid {
		f.grid[i] = cells[i*f.cfg.Cols : (i+1)*f.cfg.Cols]
	}
	f.placements = map[int]*Placement{}
}

// ensurePort materializes the configuration port on the first load.
func (f *Fabric) ensurePort() *sim.Resource {
	if f.port == nil {
		f.port = sim.NewResource(f.eng, "icap", 1)
	}
	return f.port
}

// Config returns the fabric geometry.
func (f *Fabric) Config() Config { return *f.cfg }

// TotalRegions returns the region count.
func (f *Fabric) TotalRegions() int { return f.cfg.Rows * f.cfg.Cols }

// FreeRegions returns how many regions are unoccupied and usable; failed
// regions count as neither free nor occupied by a module.
func (f *Fabric) FreeRegions() int {
	if f.grid == nil {
		return f.TotalRegions()
	}
	n := 0
	for r, row := range f.grid {
		for c, v := range row {
			if v < 0 && !f.failedAt(r, c) {
				n++
			}
		}
	}
	return n
}

// Utilization returns occupied/total regions.
func (f *Fabric) Utilization() float64 {
	return 1 - float64(f.FreeRegions())/float64(f.TotalRegions())
}

// Placements returns the current placements sorted by id (load order).
func (f *Fabric) Placements() []*Placement {
	out := make([]*Placement, 0, len(f.placements))
	for _, p := range f.placements {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// boxShapes enumerates (rows, cols) rectangles holding at least n regions,
// ordered by area then squareness — the GoAhead bounding-box-minimization
// heuristic.
func boxShapes(n, maxRows, maxCols int) [][2]int {
	var shapes [][2]int
	for r := 1; r <= maxRows; r++ {
		c := (n + r - 1) / r
		if c <= maxCols {
			shapes = append(shapes, [2]int{r, c})
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		ai := shapes[i][0] * shapes[i][1]
		aj := shapes[j][0] * shapes[j][1]
		if ai != aj {
			return ai < aj
		}
		di := shapes[i][0] - shapes[i][1]
		dj := shapes[j][0] - shapes[j][1]
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		return di < dj
	})
	return shapes
}

func (f *Fabric) rectFree(row, col, rows, cols int) bool {
	if row+rows > f.cfg.Rows || col+cols > f.cfg.Cols {
		return false
	}
	for r := row; r < row+rows; r++ {
		for c := col; c < col+cols; c++ {
			if f.grid[r][c] >= 0 || f.failedAt(r, c) {
				return false
			}
		}
	}
	return true
}

// failedAt reports whether region (r, c) has been marked failed.
func (f *Fabric) failedAt(r, c int) bool {
	return f.failed != nil && f.failed[r*f.cfg.Cols+c]
}

// FailedRegions returns how many regions have been marked failed.
func (f *Fabric) FailedRegions() int { return f.nfailed }

// FailRegion marks region (row, col) permanently unusable: it is excluded
// from every future placement search (Place, Defragment, LargestFreeBox)
// and from the free-region count. If a placement overlapped the region,
// that placement is removed — its module can no longer be trusted — and
// returned so the caller can tear down and re-place the module; nil means
// the region was free (or already failed) and nothing was lost.
func (f *Fabric) FailRegion(row, col int) *Placement {
	if row < 0 || row >= f.cfg.Rows || col < 0 || col >= f.cfg.Cols {
		panic(fmt.Sprintf("fabric: FailRegion(%d,%d) outside %dx%d grid", row, col, f.cfg.Rows, f.cfg.Cols))
	}
	f.materializeGrid()
	if f.failedAt(row, col) {
		return nil
	}
	if f.failed == nil {
		f.failed = make([]bool, f.cfg.Rows*f.cfg.Cols)
	}
	f.failed[row*f.cfg.Cols+col] = true
	f.nfailed++
	if id := f.grid[row][col]; id >= 0 {
		p := f.placements[id]
		f.fill(p, -1)
		delete(f.placements, id)
		return p
	}
	return nil
}

// ErrNoSpace is returned when no free bounding box can hold a module.
type ErrNoSpace struct {
	Module  Module
	Regions int
}

func (e *ErrNoSpace) Error() string {
	return fmt.Sprintf("fabric: no free %d-region box for module %s", e.Regions, e.Module.Name)
}

// Place reserves a minimal bounding box for the module, top-left-first.
// It performs no reconfiguration; pair it with Load.
func (f *Fabric) Place(mod Module) (*Placement, error) {
	f.materializeGrid()
	need := mod.Req.RegionsNeeded(f.cfg.PerRegion)
	for _, shape := range boxShapes(need, f.cfg.Rows, f.cfg.Cols) {
		for row := 0; row <= f.cfg.Rows-shape[0]; row++ {
			for col := 0; col <= f.cfg.Cols-shape[1]; col++ {
				if f.rectFree(row, col, shape[0], shape[1]) {
					p := &Placement{Module: mod, Row: row, Col: col, Rows: shape[0], Cols: shape[1], id: f.nextID}
					f.nextID++
					f.placements[p.id] = p
					f.fill(p, p.id)
					return p, nil
				}
			}
		}
	}
	f.failures++
	return nil, &ErrNoSpace{Module: mod, Regions: need}
}

func (f *Fabric) fill(p *Placement, v int) {
	for r := p.Row; r < p.Row+p.Rows; r++ {
		for c := p.Col; c < p.Col+p.Cols; c++ {
			f.grid[r][c] = v
		}
	}
}

// Remove frees a placement's regions.
func (f *Fabric) Remove(p *Placement) {
	if _, ok := f.placements[p.id]; !ok {
		panic("fabric: removing unknown placement " + p.String())
	}
	f.fill(p, -1)
	delete(f.placements, p.id)
}

// PlacementFailures returns how many Place calls found no space.
func (f *Fabric) PlacementFailures() uint64 { return f.failures }

// Defragment compacts the floorplan: every module is lifted and re-placed
// greedily in decreasing area order. It returns how many modules moved.
// Failed regions are never re-placement targets (the placement search
// skips them like occupied cells), and a module that no longer fits
// anywhere keeps its old rectangle — which cannot overlap a failed region
// since FailRegion evicts overlapping placements eagerly. Moving a
// module costs no reconfiguration time here; the accelerator layer
// charges none either.
func (f *Fabric) Defragment() (moved int) {
	ps := f.Placements()
	sort.Slice(ps, func(i, j int) bool {
		return ps[i].Area() > ps[j].Area()
	})
	for _, p := range ps {
		f.fill(p, -1)
	}
	for _, p := range ps {
		oldRow, oldCol := p.Row, p.Col
		need := p.Module.Req.RegionsNeeded(f.cfg.PerRegion)
	search:
		for _, shape := range boxShapes(need, f.cfg.Rows, f.cfg.Cols) {
			for row := 0; row <= f.cfg.Rows-shape[0]; row++ {
				for col := 0; col <= f.cfg.Cols-shape[1]; col++ {
					if f.rectFree(row, col, shape[0], shape[1]) {
						p.Row, p.Col, p.Rows, p.Cols = row, col, shape[0], shape[1]
						break search
					}
				}
			}
		}
		f.fill(p, p.id)
		if p.Row != oldRow || p.Col != oldCol {
			moved++
		}
	}
	return moved
}

// LargestFreeBox returns the area in regions of the largest free
// rectangle — the fragmentation metric of E9.
func (f *Fabric) LargestFreeBox() int {
	if f.grid == nil {
		return f.cfg.Rows * f.cfg.Cols
	}
	best := 0
	for rows := 1; rows <= f.cfg.Rows; rows++ {
		for cols := 1; cols <= f.cfg.Cols; cols++ {
			if rows*cols <= best {
				continue
			}
			for r := 0; r+rows <= f.cfg.Rows; r++ {
				for c := 0; c+cols <= f.cfg.Cols; c++ {
					if f.rectFree(r, c, rows, cols) {
						best = rows * cols
					}
				}
			}
		}
	}
	return best
}

// Loads returns the number of completed partial reconfigurations.
func (f *Fabric) Loads() uint64 { return f.loads }

// PortUtilization returns the fraction of [0, now] the configuration
// (ICAP-class) port spent transferring bitstreams.
func (f *Fabric) PortUtilization(now sim.Time) float64 {
	if f.port == nil {
		return 0
	}
	return f.port.Utilization(now)
}
