// Package energy provides the energy-accounting model used throughout the
// ECOSCALE reproduction, plus the exascale power-extrapolation model behind
// the paper's introductory claim that scaling Tianhe-2-class technology to
// an exaflop would require on the order of 1 GW.
//
// Every architectural component charges its activity to a Meter using a
// per-event cost table (CostModel). Costs are order-of-magnitude figures
// drawn from the public literature on 28–16nm-era systems (pJ per op/bit
// scale); the experiments only rely on their *ratios* (DRAM ≫ cache ≫
// ALU, off-chip link ≫ on-chip hop, FPGA op ≪ CPU op for datapath work),
// which are robust across processes.
package energy

import (
	"fmt"
	"sort"

	"ecoscale/internal/sim"
)

// Joules is an energy amount in joules.
type Joules float64

// Common magnitudes.
const (
	Picojoule  Joules = 1e-12
	Nanojoule  Joules = 1e-9
	Microjoule Joules = 1e-6
	Millijoule Joules = 1e-3
)

func (j Joules) String() string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3fJ", float64(j))
	case j >= 1e-3:
		return fmt.Sprintf("%.3fmJ", float64(j)/1e-3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3fuJ", float64(j)/1e-6)
	case j >= 1e-9:
		return fmt.Sprintf("%.3fnJ", float64(j)/1e-9)
	default:
		return fmt.Sprintf("%.3fpJ", float64(j)/1e-12)
	}
}

// Watts is power in watts.
type Watts float64

// CostModel holds per-event dynamic energies and per-component static
// power. The defaults (DefaultCostModel) model a 2016-era ARM+FPGA Worker.
type CostModel struct {
	// Dynamic energy per event.
	CPUOp           Joules // one ALU-class CPU operation
	CPUIdleCycle    Joules // one idle CPU cycle (clock tree etc.)
	FPGAOp          Joules // one datapath operation in configured fabric
	CacheAccess     Joules // one L1/L2 cache access (per 64B line)
	DRAMAccess      Joules // one DRAM access (per 64B line)
	NoCHopPerFlit   Joules // one on-chip hop for one 16B flit
	LinkPerFlit     Joules // one off-chip/inter-node link traversal per 16B flit
	ReconfigPerByte Joules // writing one byte of configuration bitstream

	// Static power per component while powered.
	CPUStatic    Watts // per CPU core
	FPGAStatic   Watts // per reconfigurable block (configured region average)
	DRAMStatic   Watts // per DRAM channel (refresh + PHY)
	RouterStatic Watts // per NoC router
}

// DefaultCostModel returns literature-scale defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		CPUOp:           20 * Picojoule,
		CPUIdleCycle:    2 * Picojoule,
		FPGAOp:          4 * Picojoule, // datapath op, no fetch/decode overhead
		CacheAccess:     25 * Picojoule,
		DRAMAccess:      2000 * Picojoule, // ~31pJ/bit * 512 bit line / 8
		NoCHopPerFlit:   8 * Picojoule,
		LinkPerFlit:     250 * Picojoule,
		ReconfigPerByte: 50 * Picojoule,
		CPUStatic:       0.35,
		FPGAStatic:      0.25,
		DRAMStatic:      0.30,
		RouterStatic:    0.05,
	}
}

// Meter accumulates energy by named component category.
type Meter struct {
	Model  CostModel
	byCat  map[string]*Account
	total  Joules
	static []staticBlock
	eng    *sim.Engine
}

// Account is one category's running total. Hot paths resolve it once with
// Meter.Account and charge it directly, without the meter's map lookup; a
// charge through the account and one through Meter.Charge are the same
// addition, to the category and to the meter's total.
type Account struct {
	m        *Meter
	category string
	e        Joules
	// listed is set by the first charge: a resolved account that was
	// never charged is not one of the meter's categories.
	listed bool
}

// StaticLoad is one constant power draw charged to a category.
type StaticLoad struct {
	Category string
	Power    Watts
}

// staticBlock is n repetitions of a load pattern registered at one
// instant. A machine with 100k identical Workers registers its per-worker
// static draws as a single block instead of 300k slice entries; Settle
// replays the pattern repetition-by-repetition so the floating-point
// accumulation order — and therefore every total, bit for bit — matches
// what n individual AddStatic calls would have produced.
type staticBlock struct {
	loads []StaticLoad
	n     int
	since sim.Time
}

// NewMeter returns a meter using the given cost model, tied to the
// engine's clock for static-power integration.
func NewMeter(eng *sim.Engine, model CostModel) *Meter {
	return &Meter{Model: model, byCat: map[string]*Account{}, eng: eng}
}

// Account returns the category's account, creating it on first use. The
// category is listed by Categories and Breakdown from its first charge.
func (m *Meter) Account(category string) *Account {
	a := m.byCat[category]
	if a == nil {
		a = &Account{m: m, category: category}
		m.byCat[category] = a
	}
	return a
}

// Charge adds dynamic energy to a category. Negative charges panic:
// energy only accumulates.
func (m *Meter) Charge(category string, e Joules) { m.Account(category).Charge(e) }

// Charge adds dynamic energy to the account's category. Negative charges
// panic: energy only accumulates.
func (a *Account) Charge(e Joules) {
	if e < 0 {
		panic("energy: negative charge to " + a.category)
	}
	a.add(e)
}

func (a *Account) add(e Joules) {
	a.e += e
	a.listed = true
	a.m.total += e
}

// AddStatic registers a constant power draw under the category, integrated
// from the current simulated time until Settle is called.
func (m *Meter) AddStatic(category string, p Watts) {
	m.AddStaticRepeated(1, StaticLoad{Category: category, Power: p})
}

// AddStaticRepeated registers n identical copies of the load pattern in
// O(len(pattern)) memory. Equivalent to calling AddStatic for each load
// of each repetition in pattern-major order, including the exact
// floating-point accumulation order at Settle time.
func (m *Meter) AddStaticRepeated(n int, pattern ...StaticLoad) {
	if n <= 0 || len(pattern) == 0 {
		return
	}
	loads := make([]StaticLoad, len(pattern))
	copy(loads, pattern)
	m.static = append(m.static, staticBlock{loads: loads, n: n, since: m.eng.Now()})
}

// Settle integrates all registered static loads up to the current time,
// folding the result into the per-category totals, and restarts the
// integration window. Call it before reading totals.
func (m *Meter) Settle() {
	now := m.eng.Now()
	for i := range m.static {
		b := &m.static[i]
		dt := (now - b.since).Seconds()
		for rep := 0; rep < b.n; rep++ {
			for _, l := range b.loads {
				m.Account(l.Category).add(Joules(float64(l.Power) * dt))
			}
		}
		b.since = now
	}
}

// Category returns the accumulated energy for one category.
func (m *Meter) Category(category string) Joules {
	if a := m.byCat[category]; a != nil {
		return a.e
	}
	return 0
}

// Total returns the sum over all categories.
// Total is maintained incrementally rather than summed from the category
// map on demand: map iteration order is randomized and float addition is
// not associative, so an on-demand sum could differ by an ulp between two
// calls at the same state (and was not monotone under a strict compare).
func (m *Meter) Total() Joules { return m.total }

// Categories returns all category names, sorted.
func (m *Meter) Categories() []string {
	names := make([]string, 0, len(m.byCat))
	for n, a := range m.byCat {
		if a.listed {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Breakdown returns category→energy pairs sorted by name.
func (m *Meter) Breakdown() []struct {
	Category string
	Energy   Joules
} {
	out := make([]struct {
		Category string
		Energy   Joules
	}, 0, len(m.byCat))
	for _, n := range m.Categories() {
		out = append(out, struct {
			Category string
			Energy   Joules
		}{n, m.byCat[n].e})
	}
	return out
}

// MeanPower returns total energy divided by elapsed simulated time.
func (m *Meter) MeanPower() Watts {
	sec := m.eng.Now().Seconds()
	if sec <= 0 {
		return 0
	}
	return Watts(float64(m.Total()) / sec)
}
