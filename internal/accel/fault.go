package accel

import (
	"errors"
	"sort"
)

// ErrInstanceLost reports that the fabric region hosting an accelerator
// instance failed: the module's state is gone and in-flight or future
// calls on it cannot produce results. The runtime treats it as a retry
// signal — re-queue the task for another instance or the CPU — rather
// than a task failure.
var ErrInstanceLost = errors.New("accel: instance lost to region failure")

// MarkFailed transitions the instance to the failed state: it is no
// longer loaded, future Invokes return ErrInstanceLost immediately, and
// in-flight calls complete with ErrInstanceLost when their (already
// scheduled) timing events fire. The placement itself is assumed to have
// been torn down by fabric.FailRegion.
func (in *Instance) MarkFailed() {
	in.failed = true
	in.loaded = false
}

// FailRegion reports a permanent failure of one fabric region to this
// Worker's manager. The region is marked unusable in the floorplan, any
// instance whose placement overlapped it is marked failed and dropped
// from the manager's table, and the lost instances are returned (at most
// one today — placements don't share regions — but the slice keeps the
// contract uniform with FailAll).
func (m *Manager) FailRegion(row, col int) []*Instance {
	p := m.Fab.FailRegion(row, col)
	if p == nil {
		return nil
	}
	var lost []*Instance
	if in, ok := m.instances[p.Module.Name]; ok && in.Placement == p {
		in.MarkFailed()
		delete(m.instances, p.Module.Name)
		if m.OnUnload != nil {
			m.OnUnload(in)
		}
		lost = append(lost, in)
	}
	return lost
}

// FailAll marks every instance on this Worker failed — the whole Worker
// died, fabric included. Instances are returned sorted by module name so
// downstream recovery walks them deterministically. The fabric grid is
// left as-is: a dead Worker's floorplan is unreachable, not fragmented.
func (m *Manager) FailAll() []*Instance {
	names := make([]string, 0, len(m.instances))
	for name := range m.instances {
		names = append(names, name)
	}
	sort.Strings(names)
	lost := make([]*Instance, 0, len(names))
	for _, name := range names {
		in := m.instances[name]
		in.MarkFailed()
		delete(m.instances, name)
		if m.OnUnload != nil {
			m.OnUnload(in)
		}
		lost = append(lost, in)
	}
	return lost
}
