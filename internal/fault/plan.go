// Package fault is the deterministic fault-injection layer: a
// declarative Plan of Worker deaths, fabric-region failures, and NoC
// link flaps is expanded — off the simulation clock, with a per-class
// seeded RNG — into a concrete fault schedule, and an Injector arms that
// schedule on the engine. Determinism is the whole point: the same seed
// yields the same fault times and the same victims, so a resilience
// experiment is as replayable as a fault-free one. Recovery itself lives
// with the subsystems it exercises (rts evacuation, unimem page
// migration, fabric re-floorplanning); this package only decides what
// breaks, when.
package fault

import (
	"fmt"
	"sort"

	"ecoscale/internal/sim"
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds.
const (
	// KillWorker fail-stops a Worker: CPU, fabric, and DRAM ownership all
	// need recovery.
	KillWorker Kind = iota
	// FailRegion permanently disables one reconfigurable region of a
	// Worker's fabric, killing the module placed there.
	FailRegion
	// FlapLink takes one interconnect link out of service transiently;
	// traffic queues behind the outage and drains when it lifts.
	FlapLink
)

func (k Kind) String() string {
	switch k {
	case KillWorker:
		return "kill-worker"
	case FailRegion:
		return "fail-region"
	default:
		return "flap-link"
	}
}

// Event is one concrete scheduled fault.
type Event struct {
	At   sim.Time
	Kind Kind
	// Worker is the victim Worker (all kinds).
	Worker int
	// Row, Col name the failed region (FailRegion).
	Row, Col int
	// Level is the interconnect level of the flapped link (FlapLink).
	Level int
	// Down is the outage duration (FlapLink).
	Down sim.Time
}

// CheckpointConfig parameterizes periodic checkpoint/restart.
type CheckpointConfig struct {
	// Interval is the checkpoint period; 0 disables checkpointing.
	Interval sim.Time
	// Bytes is the per-Worker snapshot size transferred to the buddy.
	Bytes int
	// RecomputeFraction is the share of the time since the last
	// checkpoint (or since t=0 without one) a restarted Worker's lost
	// work costs to redo.
	RecomputeFraction float64
}

// Norm fills config defaults: 256 KiB snapshots, half the lost interval
// recomputed.
func (c CheckpointConfig) Norm() CheckpointConfig {
	if c.Bytes <= 0 {
		c.Bytes = 256 << 10
	}
	if c.RecomputeFraction <= 0 {
		c.RecomputeFraction = 0.5
	}
	return c
}

// Plan declares the faults to inject. Stochastic rates (MTBFs) are
// expanded into concrete events by Schedule using only the plan's own
// seed; explicit Events are merged in as-is. The zero Plan is inert.
type Plan struct {
	// Seed drives every random draw of the expansion; the engine's RNG is
	// never touched, so arming a plan cannot perturb workload randomness.
	Seed int64
	// Start offsets the whole schedule (e.g. past the deployment phase).
	Start sim.Time
	// Horizon bounds the window after Start in which stochastic faults
	// occur. Explicit Events are not clipped.
	Horizon sim.Time

	// WorkerMTBF is the mean time between Worker deaths; 0 disables.
	WorkerMTBF sim.Time
	// MaxKills caps stochastic Worker deaths; 0 means no cap.
	MaxKills int

	// RegionMTBF is the mean time between fabric-region failures.
	RegionMTBF sim.Time
	// MaxRegionFails caps stochastic region failures; 0 means no cap.
	MaxRegionFails int

	// LinkMTBF is the mean time between link flaps.
	LinkMTBF sim.Time
	// LinkDown is each flap's outage duration (default 50µs).
	LinkDown sim.Time
	// MaxFlaps caps stochastic link flaps; 0 means no cap.
	MaxFlaps int

	// Checkpoint enables periodic checkpointing when Interval > 0.
	Checkpoint CheckpointConfig

	// Events are explicit faults merged into the schedule. Negative
	// victim fields (Worker, Row/Col, Level) are drawn from the seed.
	Events []Event
}

// Empty reports whether the plan injects nothing and checkpoints
// nothing — the machine must behave byte-identically to one that never
// saw the plan.
func (p *Plan) Empty() bool {
	return p == nil ||
		(p.WorkerMTBF == 0 && p.RegionMTBF == 0 && p.LinkMTBF == 0 &&
			len(p.Events) == 0 && p.Checkpoint.Interval == 0)
}

// Shape describes the machine the schedule draws victims from.
type Shape struct {
	Workers    int
	Rows, Cols int
	// Levels is the interconnect depth (tree MaxHops); 0 disables flaps.
	Levels int
}

// Per-class seed salts: each fault class gets an independent stream, so
// e.g. raising the link-flap rate cannot shift which Workers die.
const (
	saltKill   = 0x6b696c6c
	saltRegion = 0x72656769
	saltLink   = 0x6c696e6b
	saltFill   = 0x66696c6c
)

// MaxEvents bounds a plan's schedule. Schedule stops drawing stochastic
// faults once it holds more, and Validate rejects such a plan.
const MaxEvents = 1 << 16

// Validate returns the first problem with the plan, or nil: a negative
// time, cap or size, or a schedule of more than MaxEvents events. It
// counts the schedule of a machine on which every fault class can
// strike, which bounds every other machine's. A nil plan is valid.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Start", int64(p.Start)}, {"Horizon", int64(p.Horizon)},
		{"WorkerMTBF", int64(p.WorkerMTBF)}, {"MaxKills", int64(p.MaxKills)},
		{"RegionMTBF", int64(p.RegionMTBF)}, {"MaxRegionFails", int64(p.MaxRegionFails)},
		{"LinkMTBF", int64(p.LinkMTBF)}, {"LinkDown", int64(p.LinkDown)}, {"MaxFlaps", int64(p.MaxFlaps)},
		{"Checkpoint.Interval", int64(p.Checkpoint.Interval)}, {"Checkpoint.Bytes", int64(p.Checkpoint.Bytes)},
	} {
		if f.v < 0 {
			return fmt.Errorf("fault: %s = %d; plan times (ps), caps and sizes cannot be negative", f.name, f.v)
		}
	}
	if n := len(p.Schedule(Shape{Workers: 1, Rows: 1, Cols: 1, Levels: 1})); n > MaxEvents {
		return fmt.Errorf("fault: the plan expands to more than %d fault events; raise an MTBF, set a cap or shorten the horizon", MaxEvents)
	}
	return nil
}

// Schedule expands the plan into the concrete, time-sorted fault list
// for a machine of the given shape. Pure: no engine, no global state —
// calling it twice yields identical slices.
func (p *Plan) Schedule(sh Shape) []Event {
	if p.Empty() {
		return nil
	}
	var out []Event
	horizon := p.Horizon
	if horizon <= 0 {
		horizon = 10 * sim.Millisecond
	}
	if p.WorkerMTBF > 0 && sh.Workers > 0 {
		rng := sim.NewRNG(p.Seed ^ saltKill)
		t := p.Start
		for n := 0; (p.MaxKills == 0 || n < p.MaxKills) && len(out) <= MaxEvents; n++ {
			t += sim.Time(rng.ExpFloat64() * float64(p.WorkerMTBF))
			if t > p.Start+horizon {
				break
			}
			out = append(out, Event{At: t, Kind: KillWorker, Worker: rng.Intn(sh.Workers)})
		}
	}
	if p.RegionMTBF > 0 && sh.Workers > 0 && sh.Rows > 0 && sh.Cols > 0 {
		rng := sim.NewRNG(p.Seed ^ saltRegion)
		t := p.Start
		for n := 0; (p.MaxRegionFails == 0 || n < p.MaxRegionFails) && len(out) <= MaxEvents; n++ {
			t += sim.Time(rng.ExpFloat64() * float64(p.RegionMTBF))
			if t > p.Start+horizon {
				break
			}
			out = append(out, Event{At: t, Kind: FailRegion,
				Worker: rng.Intn(sh.Workers), Row: rng.Intn(sh.Rows), Col: rng.Intn(sh.Cols)})
		}
	}
	if p.LinkMTBF > 0 && sh.Workers > 0 && sh.Levels > 0 {
		rng := sim.NewRNG(p.Seed ^ saltLink)
		down := p.LinkDown
		if down <= 0 {
			down = 50 * sim.Microsecond
		}
		t := p.Start
		for n := 0; (p.MaxFlaps == 0 || n < p.MaxFlaps) && len(out) <= MaxEvents; n++ {
			t += sim.Time(rng.ExpFloat64() * float64(p.LinkMTBF))
			if t > p.Start+horizon {
				break
			}
			out = append(out, Event{At: t, Kind: FlapLink,
				Worker: rng.Intn(sh.Workers), Level: rng.Intn(sh.Levels), Down: down})
		}
	}
	if len(p.Events) > 0 {
		rng := sim.NewRNG(p.Seed ^ saltFill)
		for _, e := range p.Events {
			if e.Worker < 0 && sh.Workers > 0 {
				e.Worker = rng.Intn(sh.Workers)
			}
			if e.Kind == FailRegion {
				if e.Row < 0 && sh.Rows > 0 {
					e.Row = rng.Intn(sh.Rows)
				}
				if e.Col < 0 && sh.Cols > 0 {
					e.Col = rng.Intn(sh.Cols)
				}
			}
			if e.Kind == FlapLink {
				if e.Level < 0 && sh.Levels > 0 {
					e.Level = rng.Intn(sh.Levels)
				}
				if e.Down <= 0 {
					e.Down = 50 * sim.Microsecond
				}
			}
			e.At += p.Start
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}
