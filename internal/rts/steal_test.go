package rts

import (
	"testing"

	"ecoscale/internal/sim"
)

func newCluster(t testing.TB, kind BalanceKind, workers int) (*rig, *Cluster) {
	t.Helper()
	r := newRig(t, workers)
	for _, s := range r.scheds {
		s.Policy = PolicyCPU{}
		s.Cores = 1
	}
	c := NewClusterFrom(kind, staticScheds(r.scheds), r.net)
	for _, s := range r.scheds {
		c.Attach(s)
	}
	return r, c
}

func TestNoBalanceKeepsImbalance(t *testing.T) {
	r, c := newCluster(t, NoBalance, 4)
	for i := 0; i < 20; i++ {
		c.Submit(0, r.task(1024), nil)
	}
	r.eng.RunUntilIdle()
	if c.Steals != 0 || c.StealMsgs != 0 {
		t.Error("NoBalance generated stealing traffic")
	}
	if got := r.scheds[0].Executed(DeviceCPU); got != 20 {
		t.Errorf("worker 0 executed %d, want all 20", got)
	}
}

func TestLazyStealingBalances(t *testing.T) {
	r, c := newCluster(t, Lazy, 4)
	// Seed every worker with one trivial task so completion triggers
	// idle probes, then dump a burst on worker 0.
	for w := 1; w < 4; w++ {
		c.Submit(w, r.task(8), nil)
	}
	for i := 0; i < 40; i++ {
		c.Submit(0, r.task(2048), nil)
	}
	r.eng.RunUntilIdle()
	if c.TotalExecuted() != 43 {
		t.Fatalf("executed %d, want 43", c.TotalExecuted())
	}
	if c.Steals == 0 {
		t.Fatal("no steals happened")
	}
	others := r.scheds[1].Executed(DeviceCPU) + r.scheds[2].Executed(DeviceCPU) + r.scheds[3].Executed(DeviceCPU)
	if others <= 3 {
		t.Errorf("helpers only ran %d tasks; no balancing", others)
	}
}

func TestPollingStealsToo(t *testing.T) {
	r, c := newCluster(t, Polling, 4)
	for w := 1; w < 4; w++ {
		c.Submit(w, r.task(8), nil)
	}
	for i := 0; i < 40; i++ {
		c.Submit(0, r.task(2048), nil)
	}
	r.eng.RunUntilIdle()
	if c.TotalExecuted() != 43 {
		t.Fatalf("executed %d, want 43", c.TotalExecuted())
	}
	if c.Steals == 0 {
		t.Error("polling balancer never stole")
	}
}

// E11 shape: lazy probing needs far fewer monitoring messages per steal
// than full polling.
func TestLazyCheaperThanPolling(t *testing.T) {
	overhead := func(kind BalanceKind) float64 {
		r, c := newCluster(t, kind, 8)
		for w := 1; w < 8; w++ {
			c.Submit(w, r.task(8), nil)
		}
		for i := 0; i < 60; i++ {
			c.Submit(0, r.task(2048), nil)
		}
		r.eng.RunUntilIdle()
		if c.Steals == 0 {
			t.Fatalf("%v: no steals", kind)
		}
		return float64(c.StealMsgs) / float64(c.Steals)
	}
	lazy, poll := overhead(Lazy), overhead(Polling)
	if lazy >= poll {
		t.Errorf("lazy overhead (%.1f msg/steal) should be below polling (%.1f)", lazy, poll)
	}
}

func TestBalancedLoadFinishesSooner(t *testing.T) {
	finish := func(kind BalanceKind) sim.Time {
		r, c := newCluster(t, kind, 4)
		for w := 1; w < 4; w++ {
			c.Submit(w, r.task(8), nil)
		}
		for i := 0; i < 40; i++ {
			c.Submit(0, r.task(2048), nil)
		}
		r.eng.RunUntilIdle()
		return r.eng.Now()
	}
	if balanced, none := finish(Lazy), finish(NoBalance); balanced >= none {
		t.Errorf("stealing (%v) should beat no balancing (%v)", balanced, none)
	}
}

func TestSingleWorkerClusterNoSteal(t *testing.T) {
	r, c := newCluster(t, Lazy, 1)
	c.Submit(0, r.task(64), nil)
	r.eng.RunUntilIdle()
	if c.Steals != 0 {
		t.Error("single worker stole from itself")
	}
}

func TestBalanceKindString(t *testing.T) {
	if NoBalance.String() != "none" || Polling.String() != "polling" || Lazy.String() != "lazy" {
		t.Error("kind strings wrong")
	}
}
