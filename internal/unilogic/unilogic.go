// Package unilogic implements the UNILOGIC architecture — the paper's
// headline contribution, "introduced in this project for the first time
// as an extension of the UNIMEM architecture": shared partitioned
// reconfigurable resources inside the UNIMEM global address space.
// "Within a Compute Node, any Worker can access any Reconfigurable block
// (even remote blocks that belong to other Workers) through the
// multi-layer interconnect" (§4.1).
//
// A Domain tracks every accelerator instance deployed on the Workers of
// a PGAS partition and routes function calls to them under a sharing
// policy. The Shared policy is UNILOGIC; the Private policy is the
// conventional "FPGA as a local accelerator for a single processing
// node" baseline the related-work section criticizes, kept for the E6
// comparison.
package unilogic

import (
	"fmt"
	"sort"

	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

// Policy selects how Workers may use reconfigurable blocks.
type Policy int

// Sharing policies.
const (
	// Shared lets any Worker call any instance in the domain (UNILOGIC
	// across the whole machine).
	Shared Policy = iota
	// SharedCN is the paper-faithful UNILOGIC scope: any Worker may call
	// any instance *within its Compute Node* (the PGAS domain of §4.1);
	// instances in other Compute Nodes are invisible (MPI territory).
	SharedCN
	// Private restricts each Worker to its own fabric.
	Private
)

func (p Policy) String() string {
	switch p {
	case Private:
		return "private"
	case SharedCN:
		return "shared-cn"
	default:
		return "shared"
	}
}

// Domain is the accelerator registry of one PGAS partition.
type Domain struct {
	Policy Policy
	// Trace, when non-nil, records routing-decision events.
	Trace *trace.Tracer
	// Reg, when non-nil, receives call counters labelled by kernel.
	Reg *trace.Registry

	tree      *topo.Tree
	prov      ManagerProvider
	instances map[string][]*accel.Instance // kernel name → deployed instances
	pending   map[string]int               // queued calls per instance key
	eng       *sim.Engine

	calls       uint64
	remoteCalls uint64
	rejected    uint64
}

// ManagerProvider abstracts access to per-Worker accelerator managers so
// a flyweight machine can materialize a Worker's manager on first touch.
// An unmaterialized Worker behaves exactly like a freshly built idle one:
// an empty fabric (FreeRegions == TotalRegions) and no instances.
type ManagerProvider interface {
	// NumWorkers returns the Worker count of the domain.
	NumWorkers() int
	// Manager returns worker w's manager, materializing it if needed.
	Manager(w int) *accel.Manager
	// PeekManager returns worker w's manager, or nil when the worker has
	// not been materialized. It must not materialize anything.
	PeekManager(w int) *accel.Manager
	// FreeRegions reports worker w's free fabric regions without
	// materializing an idle worker.
	FreeRegions(w int) int
}

// NewDomainFrom creates a domain over a manager provider, which may
// materialize managers lazily.
func NewDomainFrom(t *topo.Tree, prov ManagerProvider, eng *sim.Engine) *Domain {
	if prov.NumWorkers() != t.NumWorkers() {
		panic(fmt.Sprintf("unilogic: %d managers for %d workers", prov.NumWorkers(), t.NumWorkers()))
	}
	return &Domain{
		tree: t, prov: prov, eng: eng,
		instances: map[string][]*accel.Instance{},
		pending:   map[string]int{},
	}
}

// Manager returns worker w's accelerator manager, materializing it in a
// flyweight machine.
func (d *Domain) Manager(w int) *accel.Manager { return d.prov.Manager(w) }

// FreeRegions reports worker w's free fabric regions without forcing an
// idle worker into existence.
func (d *Domain) FreeRegions(w int) int { return d.prov.FreeRegions(w) }

// NumWorkers returns the domain's Worker count.
func (d *Domain) NumWorkers() int { return d.prov.NumWorkers() }

// Deploy loads impl on worker w's fabric and registers it under the
// kernel's name.
func (d *Domain) Deploy(w int, impl *hls.Impl, done func(*accel.Instance, error)) {
	d.prov.Manager(w).Ensure(impl, func(in *accel.Instance, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		d.register(in)
		done(in, nil)
	})
}

func (d *Domain) register(in *accel.Instance) {
	name := in.Impl.Kernel.Name
	for _, have := range d.instances[name] {
		if have == in {
			return
		}
	}
	d.instances[name] = append(d.instances[name], in)
}

// Instances returns the registered instances of a kernel.
func (d *Domain) Instances(kernel string) []*accel.Instance {
	return d.instances[kernel]
}

// Deregister drops an instance from the routing table (region or
// Worker failure); future Calls no longer consider it. The pending
// counter for its key is left alone: in-flight calls still decrement it
// on completion, and a redeploy to the same Worker rightly inherits the
// backlog. Reports whether the instance was registered.
func (d *Domain) Deregister(in *accel.Instance) bool {
	name := in.Impl.Kernel.Name
	ins := d.instances[name]
	for i, have := range ins {
		if have == in {
			d.instances[name] = append(ins[:i], ins[i+1:]...)
			if len(d.instances[name]) == 0 {
				delete(d.instances, name)
			}
			return true
		}
	}
	return false
}

// Calls returns total and remote (caller != hosting Worker) call counts.
func (d *Domain) Calls() (total, remote uint64) { return d.calls, d.remoteCalls }

// Rejected returns how many calls found no eligible instance.
func (d *Domain) Rejected() uint64 { return d.rejected }

func key(in *accel.Instance) string {
	return fmt.Sprintf("%s@%d", in.Impl.Kernel.Name, in.Worker)
}

// sameComputeNode reports whether two workers share a PGAS domain.
func (d *Domain) sameComputeNode(a, b int) bool {
	return d.tree.ComputeNodeOf(a) == d.tree.ComputeNodeOf(b)
}

// pick selects the best eligible instance for caller: least pending
// calls first, then nearest by hop distance, then lowest Worker id for
// determinism. Remote state is the domain's own bookkeeping — no status
// polling of remote Workers is needed, matching the paper's aversion to
// remote-monitoring overhead.
func (d *Domain) pick(caller int, kernel string) *accel.Instance {
	var best *accel.Instance
	bestLoad, bestDist := 0, 0
	for _, in := range d.instances[kernel] {
		if d.Policy == Private && in.Worker != caller {
			continue
		}
		if d.Policy == SharedCN && !d.sameComputeNode(caller, in.Worker) {
			continue
		}
		load := d.pending[key(in)]
		dist := d.tree.HopDistance(caller, in.Worker)
		if best == nil || load < bestLoad ||
			(load == bestLoad && dist < bestDist) ||
			(load == bestLoad && dist == bestDist && in.Worker < best.Worker) {
			best, bestLoad, bestDist = in, load, dist
		}
	}
	return best
}

// Call routes one invocation of kernel from caller to an instance
// according to the policy. The error (no instance available) is
// delivered synchronously through done.
func (d *Domain) Call(caller int, kernel string, spec accel.CallSpec, done func(error)) {
	in := d.pick(caller, kernel)
	if in == nil {
		d.rejected++
		if d.Reg != nil {
			d.Reg.CounterL("unilogic.rejected", trace.L("kernel", kernel)).Inc()
		}
		if done != nil {
			done(fmt.Errorf("unilogic: no %s instance available to worker %d under %s policy",
				kernel, caller, d.Policy))
		}
		return
	}
	d.calls++
	if in.Worker != caller {
		d.remoteCalls++
	}
	d.Trace.Add(trace.Span{Name: kernel, Cat: trace.CatRoute,
		Start: int64(d.eng.Now()), End: int64(d.eng.Now()),
		PID: trace.WorkerPID(caller), TID: trace.TIDCPU, Arg: int64(in.Worker)})
	if d.Reg != nil {
		d.Reg.CounterL("unilogic.calls", trace.L("kernel", kernel)).Inc()
		if in.Worker != caller {
			d.Reg.CounterL("unilogic.remote_calls", trace.L("kernel", kernel)).Inc()
		}
	}
	k := key(in)
	d.pending[k]++
	in.Invoke(caller, spec, func(err error) {
		d.pending[k]--
		if done != nil {
			done(err)
		}
	})
}

// Utilization returns, per registered instance (sorted by key), the
// completed call count — the load-spreading evidence of E6.
func (d *Domain) Utilization() map[string]uint64 {
	out := map[string]uint64{}
	for _, ins := range d.instances {
		for _, in := range ins {
			out[key(in)] = in.Calls()
		}
	}
	return out
}

// Balance returns max/mean completed calls across instances of a kernel
// (1.0 = perfectly balanced); 0 when unused.
func (d *Domain) Balance(kernel string) float64 {
	ins := d.instances[kernel]
	if len(ins) == 0 {
		return 0
	}
	var sum, max uint64
	for _, in := range ins {
		c := in.Calls()
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ins))
	return float64(max) / mean
}

// Kernels returns the registered kernel names, sorted.
func (d *Domain) Kernels() []string {
	names := make([]string, 0, len(d.instances))
	for n := range d.instances {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
