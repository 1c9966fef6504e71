package fault

import (
	"reflect"
	"strings"
	"testing"

	"ecoscale/internal/sim"
)

var shape = Shape{Workers: 16, Rows: 8, Cols: 8, Levels: 2}

func TestEmptyPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
	if !(&Plan{Seed: 7, Horizon: sim.Millisecond}).Empty() {
		t.Error("plan with no rates/events/checkpoint not empty")
	}
	if (&Plan{WorkerMTBF: sim.Millisecond}).Empty() {
		t.Error("plan with a kill rate reads empty")
	}
	if (&Plan{Checkpoint: CheckpointConfig{Interval: sim.Millisecond}}).Empty() {
		t.Error("plan with checkpointing reads empty")
	}
	if got := (&Plan{}).Schedule(shape); got != nil {
		t.Errorf("empty plan scheduled %d events", len(got))
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := &Plan{
		Seed: 99, Horizon: 5 * sim.Millisecond,
		WorkerMTBF: 300 * sim.Microsecond, MaxKills: 4,
		RegionMTBF: 200 * sim.Microsecond, MaxRegionFails: 6,
		LinkMTBF: 250 * sim.Microsecond, MaxFlaps: 3,
	}
	a := p.Schedule(shape)
	b := p.Schedule(shape)
	if len(a) == 0 {
		t.Fatal("no events scheduled")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan produced different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not time-sorted at %d", i)
		}
	}
	for _, e := range a {
		if e.Worker < 0 || e.Worker >= shape.Workers {
			t.Fatalf("victim %d out of range", e.Worker)
		}
		if e.At > p.Start+p.Horizon {
			t.Fatalf("stochastic event at %v past horizon", e.At)
		}
	}
}

// Each fault class draws from its own salted stream: changing one
// class's rate must not move another class's events.
func TestClassStreamsIndependent(t *testing.T) {
	base := &Plan{Seed: 5, Horizon: 5 * sim.Millisecond, WorkerMTBF: 400 * sim.Microsecond, MaxKills: 5}
	kills := func(evs []Event) []Event {
		var out []Event
		for _, e := range evs {
			if e.Kind == KillWorker {
				out = append(out, e)
			}
		}
		return out
	}
	a := kills(base.Schedule(shape))
	withLinks := *base
	withLinks.LinkMTBF = 100 * sim.Microsecond
	withLinks.MaxFlaps = 10
	b := kills(withLinks.Schedule(shape))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("adding link flaps changed the kill schedule")
	}
}

func TestExplicitEventsOffsetBySt(t *testing.T) {
	p := &Plan{
		Start:  sim.Millisecond,
		Events: []Event{{At: 10 * sim.Microsecond, Kind: KillWorker, Worker: 3}},
	}
	evs := p.Schedule(shape)
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].At != sim.Millisecond+10*sim.Microsecond {
		t.Errorf("explicit event at %v, want Start-relative placement", evs[0].At)
	}
	if evs[0].Worker != 3 {
		t.Errorf("victim %d", evs[0].Worker)
	}
}

func TestNegativeVictimsFilled(t *testing.T) {
	p := &Plan{Seed: 11, Events: []Event{
		{At: 1, Kind: KillWorker, Worker: -1},
		{At: 2, Kind: FailRegion, Worker: -1, Row: -1, Col: -1},
		{At: 3, Kind: FlapLink, Worker: -1, Level: -1},
	}}
	evs := p.Schedule(shape)
	for _, e := range evs {
		if e.Worker < 0 || e.Worker >= shape.Workers {
			t.Errorf("%v: worker not filled", e.Kind)
		}
		switch e.Kind {
		case FailRegion:
			if e.Row < 0 || e.Row >= shape.Rows || e.Col < 0 || e.Col >= shape.Cols {
				t.Error("region coordinates not filled")
			}
		case FlapLink:
			if e.Level < 0 || e.Level >= shape.Levels {
				t.Error("link level not filled")
			}
			if e.Down <= 0 {
				t.Error("flap duration not defaulted")
			}
		}
	}
	if !reflect.DeepEqual(evs, p.Schedule(shape)) {
		t.Error("filled victims not deterministic")
	}
}

func TestMaxCaps(t *testing.T) {
	p := &Plan{Seed: 1, Horizon: sim.Second, WorkerMTBF: sim.Microsecond, MaxKills: 7}
	if got := len(p.Schedule(shape)); got != 7 {
		t.Errorf("MaxKills=7 scheduled %d kills", got)
	}
}

func TestCheckpointNorm(t *testing.T) {
	c := CheckpointConfig{Interval: sim.Millisecond}.Norm()
	if c.Bytes != 256<<10 {
		t.Errorf("default bytes = %d", c.Bytes)
	}
	if c.RecomputeFraction != 0.5 {
		t.Errorf("default recompute fraction = %g", c.RecomputeFraction)
	}
	c2 := CheckpointConfig{Interval: sim.Millisecond, Bytes: 128, RecomputeFraction: 0.25}.Norm()
	if c2.Bytes != 128 || c2.RecomputeFraction != 0.25 {
		t.Error("Norm clobbered explicit values")
	}
}

func TestInjectorClampsPastEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.At(100*sim.Microsecond, func() {})
	eng.RunUntilIdle() // now = 100us
	var fired []int
	inj := NewInjector(eng, Hooks{KillWorker: func(w int) { fired = append(fired, w) }})
	inj.Arm([]Event{{At: 10 * sim.Microsecond, Kind: KillWorker, Worker: 4}})
	eng.RunUntilIdle()
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("past-time event fired = %v", fired)
	}
	if inj.Fired != 1 {
		t.Errorf("Fired = %d", inj.Fired)
	}
}

func TestPlanValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		plan *Plan
		want string // "" = accepted
	}{
		{"nil", nil, ""},
		{"empty", &Plan{}, ""},
		{"capped storm", &Plan{WorkerMTBF: 1, MaxKills: 8}, ""},
		{"checkpointing", &Plan{Checkpoint: CheckpointConfig{Interval: 50 * sim.Microsecond, Bytes: 4096}}, ""},
		{"explicit flap", &Plan{Events: []Event{{At: sim.Microsecond, Kind: FlapLink, Worker: -1, Level: -1}}}, ""},
		{"negative link down", &Plan{LinkMTBF: sim.Microsecond, LinkDown: -sim.Microsecond}, "LinkDown"},
		{"negative mtbf", &Plan{WorkerMTBF: -1}, "WorkerMTBF"},
		{"negative horizon", &Plan{Horizon: -1, WorkerMTBF: sim.Millisecond}, "Horizon"},
		{"negative ckpt bytes", &Plan{Checkpoint: CheckpointConfig{Interval: sim.Millisecond, Bytes: -100}}, "Checkpoint.Bytes"},
		{"negative kill cap", &Plan{WorkerMTBF: sim.Millisecond, MaxKills: -2}, "MaxKills"},
		{"negative flap cap", &Plan{LinkMTBF: sim.Millisecond, MaxFlaps: -1}, "MaxFlaps"},
		// 1ns MTBF over the default 10ms horizon: about 10M kills.
		{"kill storm", &Plan{WorkerMTBF: sim.Nanosecond}, "more than"},
		{"flap storm", &Plan{LinkMTBF: sim.Microsecond, Horizon: sim.Second}, "more than"},
		{"too many explicit", &Plan{Events: make([]Event, MaxEvents+1)}, "more than"},
	} {
		err := c.plan.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// FuzzPlan: Validate never panics, and the schedule of a plan it accepts
// is deterministic and holds at most MaxEvents events.
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0), int64(100*sim.Microsecond), 0, int64(0), 0, int64(0), int64(0), 0, int64(0), 0, 0, int64(0))
	f.Add(int64(99), int64(0), int64(5*sim.Millisecond), int64(300*sim.Microsecond), 4,
		int64(200*sim.Microsecond), 6, int64(250*sim.Microsecond), int64(0), 3, int64(0), 0, 1, int64(sim.Microsecond))
	f.Add(int64(1), int64(0), int64(0), int64(sim.Nanosecond), 0, int64(0), 0, int64(0), int64(0), 0, int64(0), 0, 0, int64(0))
	f.Add(int64(1), int64(0), int64(0), int64(0), 0, int64(0), 0, int64(sim.Microsecond), int64(-sim.Microsecond), 0, int64(0), 0, 0, int64(0))
	f.Add(int64(1), int64(0), int64(0), int64(sim.Millisecond), -2, int64(0), 0, int64(0), int64(0), 0, int64(sim.Millisecond), -100, 0, int64(0))
	f.Fuzz(func(t *testing.T, seed, start, horizon, workerMTBF int64, maxKills int, regionMTBF int64, maxRegion int,
		linkMTBF, linkDown int64, maxFlaps int, ckptInterval int64, ckptBytes, kind int, at int64) {
		p := &Plan{
			Seed: seed, Start: sim.Time(start), Horizon: sim.Time(horizon),
			WorkerMTBF: sim.Time(workerMTBF), MaxKills: maxKills,
			RegionMTBF: sim.Time(regionMTBF), MaxRegionFails: maxRegion,
			LinkMTBF: sim.Time(linkMTBF), LinkDown: sim.Time(linkDown), MaxFlaps: maxFlaps,
			Checkpoint: CheckpointConfig{Interval: sim.Time(ckptInterval), Bytes: ckptBytes},
			Events:     []Event{{At: sim.Time(at), Kind: Kind(kind), Worker: -1, Row: -1, Col: -1, Level: -1}},
		}
		if p.Validate() != nil {
			return
		}
		a := p.Schedule(shape)
		if len(a) > MaxEvents {
			t.Fatalf("accepted plan scheduled %d events, over the %d budget", len(a), MaxEvents)
		}
		if !reflect.DeepEqual(a, p.Schedule(shape)) {
			t.Fatal("same plan produced different schedules")
		}
	})
}
