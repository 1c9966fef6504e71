package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ecoscale/internal/sim"
)

func TestJoulesString(t *testing.T) {
	cases := []struct {
		j    Joules
		want string
	}{
		{2, "2.000J"},
		{5 * Millijoule, "5.000mJ"},
		{5 * Microjoule, "5.000uJ"},
		{5 * Nanojoule, "5.000nJ"},
		{5 * Picojoule, "5.000pJ"},
	}
	for _, c := range cases {
		if got := c.j.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.j), got, c.want)
		}
	}
}

func TestMeterCharge(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMeter(e, DefaultCostModel())
	m.Charge("cpu", 10*Picojoule)
	m.Charge("cpu", 5*Picojoule)
	m.Charge("dram", 1*Nanojoule)
	if got := m.Category("cpu"); got != 15*Picojoule {
		t.Errorf("cpu = %v, want 15pJ", got)
	}
	if got := m.Total(); math.Abs(float64(got-(15*Picojoule+1*Nanojoule))) > 1e-18 {
		t.Errorf("Total = %v", got)
	}
	cats := m.Categories()
	if len(cats) != 2 || cats[0] != "cpu" || cats[1] != "dram" {
		t.Errorf("Categories = %v", cats)
	}
	bd := m.Breakdown()
	if len(bd) != 2 || bd[0].Category != "cpu" {
		t.Errorf("Breakdown = %v", bd)
	}
}

func TestMeterNegativeChargePanics(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMeter(e, DefaultCostModel())
	defer func() {
		if recover() == nil {
			t.Error("negative charge did not panic")
		}
	}()
	m.Charge("cpu", -1)
}

func TestAccountListedFromFirstCharge(t *testing.T) {
	m := NewMeter(sim.NewEngine(1), DefaultCostModel())
	m.Account("noc")
	m.Account("link")
	m.Charge("zero", 0)
	if got := m.Categories(); len(got) != 1 || got[0] != "zero" {
		t.Errorf("Categories = %v, want [zero]: resolved accounts are not listed until charged, a zero Charge is", got)
	}
	if bd := m.Breakdown(); len(bd) != 1 || bd[0].Category != "zero" || bd[0].Energy != 0 {
		t.Errorf("Breakdown = %v, want [{zero 0}]", bd)
	}
	m.Account("link").Charge(0)
	if got := m.Categories(); len(got) != 2 || got[0] != "link" {
		t.Errorf("Categories = %v after a zero Account.Charge, want [link zero]", got)
	}
	if m.Account("noc") != m.Account("noc") {
		t.Error("Account returned two accounts for one category")
	}
}

func TestAccountNegativeChargePanics(t *testing.T) {
	a := NewMeter(sim.NewEngine(1), DefaultCostModel()).Account("noc")
	defer func() {
		if recover() == nil {
			t.Error("negative Account.Charge did not panic")
		}
	}()
	a.Charge(-1)
}

// Charges made through resolved accounts, interleaved with Meter.Charge,
// must add up bit for bit as the same charges made through Charge alone.
func TestAccountMatchesCharge(t *testing.T) {
	eng := sim.NewEngine(1)
	byName := NewMeter(eng, DefaultCostModel())
	mixed := NewMeter(eng, DefaultCostModel())
	cats := []string{"noc", "link", "cpu"}
	accts := make([]*Account, len(cats))
	for i, c := range cats {
		accts[i] = mixed.Account(c)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 5000; i++ {
		c := rng.Intn(len(cats))
		e := Joules(rng.Float64()) * Nanojoule
		byName.Charge(cats[c], e)
		if i%3 == 0 {
			mixed.Charge(cats[c], e)
		} else {
			accts[c].Charge(e)
		}
	}
	if a, b := math.Float64bits(float64(byName.Total())), math.Float64bits(float64(mixed.Total())); a != b {
		t.Errorf("Total bits %#x through Charge, %#x through accounts", a, b)
	}
	want, got := byName.Breakdown(), mixed.Breakdown()
	if len(want) != len(got) {
		t.Fatalf("Breakdown has %d categories through Charge, %d through accounts", len(want), len(got))
	}
	for i := range want {
		if want[i].Category != got[i].Category ||
			math.Float64bits(float64(want[i].Energy)) != math.Float64bits(float64(got[i].Energy)) {
			t.Errorf("Breakdown[%d] = %v through Charge, %v through accounts", i, want[i], got[i])
		}
	}
}

func TestMeterStaticIntegration(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMeter(e, DefaultCostModel())
	m.AddStatic("leak", 2.0) // 2 W
	e.At(sim.Second, func() {})
	e.RunUntilIdle()
	m.Settle()
	if got := m.Category("leak"); math.Abs(float64(got)-2.0) > 1e-9 {
		t.Errorf("1s at 2W = %v, want 2J", got)
	}
	// Settle again immediately: no double counting.
	m.Settle()
	if got := m.Category("leak"); math.Abs(float64(got)-2.0) > 1e-9 {
		t.Errorf("double settle changed energy: %v", got)
	}
	// Another half second adds 1J.
	e.At(e.Now()+sim.Second/2, func() {})
	e.RunUntilIdle()
	m.Settle()
	if got := m.Category("leak"); math.Abs(float64(got)-3.0) > 1e-9 {
		t.Errorf("after 1.5s = %v, want 3J", got)
	}
}

func TestMeanPower(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMeter(e, DefaultCostModel())
	e.At(sim.Second, func() {})
	e.RunUntilIdle()
	m.Charge("x", 5)
	if got := m.MeanPower(); math.Abs(float64(got)-5) > 1e-9 {
		t.Errorf("MeanPower = %v, want 5W", got)
	}
}

func TestMeanPowerZeroTime(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMeter(e, DefaultCostModel())
	m.Charge("x", 5)
	if m.MeanPower() != 0 {
		t.Error("MeanPower at t=0 should be 0")
	}
}

// Property: total equals the sum of categories and never decreases.
func TestMeterMonotoneProperty(t *testing.T) {
	prop := func(charges []uint16) bool {
		e := sim.NewEngine(1)
		m := NewMeter(e, DefaultCostModel())
		var prev Joules
		cats := []string{"a", "b", "c"}
		for i, c := range charges {
			m.Charge(cats[i%3], Joules(c)*Picojoule)
			if m.Total() < prev {
				return false
			}
			prev = m.Total()
		}
		var sum Joules
		for _, c := range m.Categories() {
			sum += m.Category(c)
		}
		return math.Abs(float64(sum-m.Total())) < 1e-15
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultCostModelOrdering(t *testing.T) {
	cm := DefaultCostModel()
	// The experiments depend on these ratios, so pin them.
	if !(cm.DRAMAccess > cm.CacheAccess) {
		t.Error("DRAM access must cost more than cache access")
	}
	if !(cm.CacheAccess > cm.NoCHopPerFlit) {
		t.Error("cache access must cost more than a NoC hop")
	}
	if !(cm.LinkPerFlit > cm.NoCHopPerFlit) {
		t.Error("off-chip link must cost more than on-chip hop")
	}
	if !(cm.CPUOp > cm.FPGAOp) {
		t.Error("CPU op must cost more than FPGA datapath op")
	}
}

func TestExtrapolateTianhe2(t *testing.T) {
	mw := ExtrapolateToExaflop(Tianhe2)
	// Paper: "we estimate that sustaining exaflop performance requires an
	// enormous 1GW power" — the straight-line Tianhe-2 extrapolation lands
	// in the 400–600 MW band and the paper rounds up order-of-magnitude.
	if mw < 300 || mw > 1100 {
		t.Errorf("Tianhe-2 exaflop extrapolation = %.0f MW, want hundreds of MW", mw)
	}
	if eff := Tianhe2.GFlopsPerWatt(); math.Abs(eff-1.902) > 0.05 {
		t.Errorf("Tianhe-2 efficiency = %v GF/W, want ~1.9", eff)
	}
}

func TestExtrapolateGreen500(t *testing.T) {
	mwTianhe := ExtrapolateToExaflop(Tianhe2)
	mwGreen := ExtrapolateToExaflop(Green500Top2015)
	// Paper: "Similar, albeit smaller, figures are obtained by
	// extrapolating even the best system of the Green 500 list."
	if !(mwGreen < mwTianhe) {
		t.Errorf("Green500 extrapolation (%.0f MW) should be below Tianhe-2 (%.0f MW)", mwGreen, mwTianhe)
	}
	if mwGreen < 50 || mwGreen > 300 {
		t.Errorf("Green500 extrapolation = %.0f MW, want low hundreds", mwGreen)
	}
}

func TestExtrapolateZeroPower(t *testing.T) {
	if ExtrapolateToExaflop(MachinePoint{}) != 0 {
		t.Error("zero machine should extrapolate to 0")
	}
	if (MachinePoint{}).GFlopsPerWatt() != 0 {
		t.Error("zero machine efficiency should be 0")
	}
}

func TestScalingModel(t *testing.T) {
	s := ScalingModel{
		EnergyPerFlop:  100 * Picojoule,
		StaticPerNodeW: 10,
		FlopsPerNode:   1e12, // 1 TF/node
	}
	nodes := s.NodesForExaflop()
	if nodes != 1000000 {
		t.Errorf("NodesForExaflop = %d, want 1e6", nodes)
	}
	mw := s.ExaflopPowerMW()
	// dynamic: 1e-10 J/flop * 1e18 flop/s = 100 MW; static: 10W*1e6 = 10 MW.
	if math.Abs(mw-110) > 1 {
		t.Errorf("ExaflopPowerMW = %v, want ~110", mw)
	}
}

func TestScalingModelZeroNode(t *testing.T) {
	var s ScalingModel
	if s.NodesForExaflop() != 0 {
		t.Error("zero model should need 0 nodes (undefined)")
	}
}

func TestMachinePointNames(t *testing.T) {
	if !strings.Contains(Green500Top2015.Name, "Green500") {
		t.Errorf("unexpected name %q", Green500Top2015.Name)
	}
}
