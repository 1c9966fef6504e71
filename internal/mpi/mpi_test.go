package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
)

func newComm(t testing.TB, workers int) (*sim.Engine, *Comm) {
	t.Helper()
	eng := sim.NewEngine(1)
	tr := topo.NewTree(workers)
	net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), nil, nil)
	return eng, WorldComm(net)
}

func TestSendRecvBasic(t *testing.T) {
	eng, c := newComm(t, 4)
	var got Message
	c.Recv(2, 1, 7, func(m Message) { got = m })
	c.Send(1, 2, 7, []float64{3.5, 4.5}, nil)
	eng.RunUntilIdle()
	if got.Source != 1 || got.Tag != 7 || len(got.Data) != 2 || got.Data[1] != 4.5 {
		t.Errorf("got %+v", got)
	}
}

func TestRecvBeforeAndAfterSend(t *testing.T) {
	eng, c := newComm(t, 2)
	order := []int{}
	// Send first: message parks in the inbox.
	c.Send(0, 1, 1, []float64{1}, func() {
		c.Recv(1, 0, 1, func(Message) { order = append(order, 1) })
	})
	eng.RunUntilIdle()
	// Recv first: parks until the send lands.
	c.Recv(1, 0, 2, func(Message) { order = append(order, 2) })
	c.Send(0, 1, 2, []float64{2}, nil)
	eng.RunUntilIdle()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestTagMatching(t *testing.T) {
	eng, c := newComm(t, 2)
	var tags []int
	c.Recv(1, 0, 2, func(m Message) { tags = append(tags, m.Tag) })
	c.Recv(1, 0, 1, func(m Message) { tags = append(tags, m.Tag) })
	c.Send(0, 1, 1, nil, nil)
	c.Send(0, 1, 2, nil, nil)
	eng.RunUntilIdle()
	if len(tags) != 2 {
		t.Fatal("messages lost")
	}
	// Each recv got its own tag regardless of arrival order.
	if !((tags[0] == 1 && tags[1] == 2) || (tags[0] == 2 && tags[1] == 1)) {
		t.Errorf("tags = %v", tags)
	}
}

func TestBcastAllShapes(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		for root := 0; root < p; root += 2 {
			eng, c := newComm(t, p)
			data := []float64{1, 2, 3}
			var got [][]float64
			c.Bcast(root, data, func(perRank [][]float64) { got = perRank })
			eng.RunUntilIdle()
			if got == nil {
				t.Fatalf("p=%d root=%d: bcast never completed", p, root)
			}
			for r := 0; r < p; r++ {
				if len(got[r]) != 3 || got[r][0] != 1 || got[r][2] != 3 {
					t.Errorf("p=%d root=%d rank=%d got %v", p, root, r, got[r])
				}
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 8} {
		eng, c := newComm(t, p)
		contrib := make([][]float64, p)
		want := make([]float64, 2)
		for r := range contrib {
			contrib[r] = []float64{float64(r), float64(r * r)}
			want[0] += float64(r)
			want[1] += float64(r * r)
		}
		var got []float64
		c.Reduce(0, contrib, OpSum, func(res []float64) { got = res })
		eng.RunUntilIdle()
		if got == nil {
			t.Fatalf("p=%d: reduce never completed", p)
		}
		if math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
			t.Errorf("p=%d: reduce = %v, want %v", p, got, want)
		}
	}
}

func TestReduceOps(t *testing.T) {
	// Reduce applies whatever operator it is given, not only OpSum.
	eng, c := newComm(t, 4)
	contrib := [][]float64{{3}, {1}, {4}, {2}}
	results := map[string]float64{}
	c.Reduce(0, contrib, math.Max, func(r []float64) { results["max"] = r[0] })
	eng.RunUntilIdle()
	c.Reduce(0, contrib, math.Min, func(r []float64) { results["min"] = r[0] })
	eng.RunUntilIdle()
	prod := func(a, b float64) float64 { return a * b }
	c.Reduce(0, contrib, prod, func(r []float64) { results["prod"] = r[0] })
	eng.RunUntilIdle()
	if results["max"] != 4 || results["min"] != 1 || results["prod"] != 24 {
		t.Errorf("results = %v", results)
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	eng, c := newComm(t, 6)
	contrib := make([][]float64, 6)
	for r := range contrib {
		contrib[r] = []float64{1}
	}
	var got []float64
	c.Reduce(3, contrib, OpSum, func(r []float64) { got = r })
	eng.RunUntilIdle()
	if got == nil || got[0] != 6 {
		t.Errorf("reduce to root 3 = %v", got)
	}
}

func TestAllreduce(t *testing.T) {
	eng, c := newComm(t, 8)
	contrib := make([][]float64, 8)
	for r := range contrib {
		contrib[r] = []float64{float64(r + 1)}
	}
	var got [][]float64
	c.Allreduce(contrib, OpSum, func(perRank [][]float64) { got = perRank })
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("allreduce never completed")
	}
	for r := range got {
		if got[r][0] != 36 {
			t.Errorf("rank %d allreduce = %v, want 36", r, got[r][0])
		}
	}
}

func TestCollectiveCostGrowsWithDistance(t *testing.T) {
	// A reduction across distant compute nodes should cost more time
	// than one within a compute node.
	run := func(fanOut ...int) sim.Time {
		eng := sim.NewEngine(1)
		tr := topo.NewTree(fanOut...)
		net := noc.NewNetwork(eng, tr, noc.DefaultConfig(tr.MaxHops()), nil, nil)
		c := WorldComm(net)
		contrib := make([][]float64, 4)
		for r := range contrib {
			contrib[r] = make([]float64, 64)
		}
		c.Reduce(0, contrib, OpSum, nil)
		return eng.RunUntilIdle()
	}
	near := run(4)   // one compute node of four Workers
	far := run(1, 4) // four compute nodes of one Worker each
	if near >= far {
		t.Errorf("intra-CN reduce (%v) should beat inter-CN (%v)", near, far)
	}
}

func TestPanics(t *testing.T) {
	eng, c := newComm(t, 4)
	_ = eng
	for name, fn := range map[string]func(){
		"bad rank send": func() { c.Send(0, 9, 0, nil, nil) },
		"bad rank recv": func() { c.Recv(-2, 0, 0, nil) },
		"ragged reduce": func() { c.Reduce(0, [][]float64{{1}, {1, 2}, {1}, {1}}, OpSum, nil) },
		"short reduce":  func() { c.Reduce(0, [][]float64{{1}}, OpSum, nil) },
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

// Property: allreduce(sum) equals the scalar sum for arbitrary inputs
// and rank counts.
func TestAllreduceProperty(t *testing.T) {
	prop := func(vals []float64, pRaw uint8) bool {
		p := int(pRaw%7) + 1
		if len(vals) < p {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		eng, c := newComm(t, p)
		contrib := make([][]float64, p)
		var want float64
		for r := 0; r < p; r++ {
			contrib[r] = []float64{vals[r]}
			want += vals[r]
		}
		var got [][]float64
		c.Allreduce(contrib, OpSum, func(perRank [][]float64) { got = perRank })
		eng.RunUntilIdle()
		if got == nil {
			return false
		}
		for r := range got {
			if math.Abs(got[r][0]-want) > 1e-6*math.Max(1, math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
