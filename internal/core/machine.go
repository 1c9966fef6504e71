// Package core assembles the ECOSCALE substrates into a whole machine —
// the hierarchical UNILOGIC+UNIMEM architecture of Fig. 3: Workers with
// CPU, cache, DRAM, dual-stage SMMU and a reconfigurable block, grouped
// into Compute Nodes (PGAS domains) joined by a multi-layer interconnect,
// with one runtime scheduler per Worker, a shared-accelerator domain and
// a work-stealing cluster on top.
//
// The machine is a flyweight: construction allocates only the shared
// spine (engine, topology, interconnect, PGAS directory, domain,
// cluster), while per-Worker state — scheduler, fabric, SMMU, accelerator
// manager, caches — materializes on the first event that touches the
// Worker. A quiescent Compute Node is a single nil slot until then, so a
// 100k-Worker machine with a handful of active Workers costs a handful
// of Workers' worth of memory. Materialization never schedules events or
// consumes engine randomness, so when a Worker comes into existence has
// no effect on the event order: a run on a lazy machine is byte-identical
// to the same run on an eagerly built one.
package core

import (
	"fmt"
	"strings"

	"ecoscale/internal/accel"
	"ecoscale/internal/energy"
	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/noc"
	"ecoscale/internal/profile"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
	"ecoscale/internal/smmu"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
	"ecoscale/internal/unilogic"
	"ecoscale/internal/unimem"
)

// MaxWorkers bounds the machine size Validate accepts. The flyweight
// model keeps idle Workers at a few bytes each, but the spine still
// holds O(workers) index slots, so a ceiling catches typos like a
// misplaced digit in a fan-out before they exhaust memory.
const MaxWorkers = 1 << 24

// mappedBytes is how much of the address space each accelerator stream
// is identity-mapped for (the user-level access window); each Worker's
// SMMU holds it as one identity rule per stage, not an entry per page.
const mappedBytes = 16 << 20

// Config describes a machine to build. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// Seed drives all randomized behaviour deterministically.
	Seed int64
	// FanOut is the machine tree, leaf upward: FanOut[0] Workers per
	// Compute Node, then Compute Nodes per chassis, and so on.
	FanOut []int
	// Cost is the energy cost model.
	Cost energy.CostModel
	// Unimem shapes the PGAS (page size, caches, DRAM).
	Unimem unimem.Config
	// Fabric shapes each Worker's reconfigurable block.
	Fabric fabric.Config
	// SMMU shapes each Worker's IOMMU.
	SMMU smmu.Config
	// Balance selects the work-stealing strategy.
	Balance rts.BalanceKind
	// Sharing selects UNILOGIC shared or private accelerator policy.
	Sharing unilogic.Policy
	// Virtualize enables the fine-grain pipelined-sharing block.
	Virtualize bool
	// CompressedBitstreams enables RLE-compressed reconfiguration.
	CompressedBitstreams bool
	// Trace enables the span tracer (Machine.Tracer): task-lifecycle
	// spans across every layer, exportable as Chrome trace-event JSON.
	Trace bool
	// Profile enables the simulation profiler (Machine.Prof): the
	// sim-clock sampling profiler during the run, and critical-path /
	// utilization analyses afterward. Implies Trace, since the analyses
	// consume the span record.
	Profile bool
	// ProfileInterval is the sampling period (0 = 10µs default).
	ProfileInterval sim.Time
}

// DefaultConfig returns a 2-level machine: workersPerCN Workers in each
// of computeNodes Compute Nodes.
func DefaultConfig(workersPerCN, computeNodes int) Config {
	return Config{
		Seed:       1,
		FanOut:     []int{workersPerCN, computeNodes},
		Cost:       energy.DefaultCostModel(),
		Unimem:     unimem.DefaultConfig(),
		Fabric:     fabric.DefaultConfig(),
		SMMU:       smmu.DefaultConfig(),
		Balance:    rts.Lazy,
		Sharing:    unilogic.Shared,
		Virtualize: true,
	}
}

// Validate checks the configuration and returns a descriptive error for
// the first problem found, so callers (the CLI in particular) can reject
// a bad machine shape up front instead of panicking deep in
// construction.
func (cfg Config) Validate() error {
	if len(cfg.FanOut) == 0 {
		return fmt.Errorf("core: config needs a tree shape (FanOut is empty; e.g. FanOut=[8,4] is 8 workers per compute node, 4 nodes)")
	}
	workers := 1
	for i, f := range cfg.FanOut {
		if f <= 0 {
			return fmt.Errorf("core: FanOut[%d] = %d; every tree level needs at least one unit", i, f)
		}
		if workers > MaxWorkers/f {
			return fmt.Errorf("core: FanOut %v implies more than %d workers; reduce the tree shape", cfg.FanOut, MaxWorkers)
		}
		workers *= f
	}
	for _, err := range []error{cfg.Unimem.Validate(), cfg.Fabric.Validate(), cfg.SMMU.Validate()} {
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// nodeShell is the materialized state of one Compute Node. A quiescent
// node has no shell at all; a live node's shell still holds nil slots
// for its untouched Workers.
type nodeShell struct {
	scheds []*rts.Scheduler
	mgrs   []*accel.Manager
}

// Machine is a built ECOSCALE system.
type Machine struct {
	Cfg     Config
	Eng     *sim.Engine
	Tree    *topo.Tree
	Net     *noc.Network
	Space   *unimem.Space
	Meter   *energy.Meter
	Reg     *trace.Registry
	Domain  *unilogic.Domain
	Cluster *rts.Cluster
	Tracer  *trace.Tracer
	// Prof is the simulation profiler (nil unless Config.Profile).
	Prof *profile.Profiler

	// Flyweight state: shells[cn] is nil while Compute Node cn is
	// quiescent, and a Worker is live once its scheduler or manager
	// slot in its node's shell is set.
	shells    []*nodeShell
	wpc       int        // workers per compute node (FanOut[0])
	defPolicy rts.Policy // applied to schedulers at materialization
	// faults is the armed-faults extension (see fault.go); nil until
	// InjectFaults or a direct fault call, so a healthy machine carries
	// one nil pointer of resilience overhead.
	faults *faultState
}

// New builds a machine from the configuration. It panics with the
// Validate error message on an invalid configuration; callers that want
// the error instead should Validate first.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	m := &Machine{Cfg: cfg}
	m.Tree = topo.NewTree(cfg.FanOut...)
	m.Eng = sim.NewEngine(cfg.Seed)
	m.Reg = trace.NewRegistry()
	m.Meter = energy.NewMeter(m.Eng, cfg.Cost)
	m.Net = noc.NewNetwork(m.Eng, m.Tree, noc.DefaultConfig(m.Tree.MaxHops()), m.Meter, m.Reg)
	m.Space = unimem.NewSpace(m.Net, cfg.Unimem, m.Reg)

	workers := m.Tree.NumWorkers()
	m.wpc = cfg.FanOut[0]
	m.shells = make([]*nodeShell, m.Tree.NumComputeNodes())
	if cfg.Profile {
		cfg.Trace = true
		m.Cfg.Trace = true
	}
	if cfg.Trace {
		m.Tracer = trace.NewTracer()
		m.Tracer.SetProcessName(trace.PIDSystem, "control plane")
		// Declare the worker process/thread lanes in O(1); names are
		// synthesized at export instead of Sprintf'd per Worker here.
		m.Tracer.SetWorkerLanes(workers)
		m.Space.Trace = m.Tracer
	}
	// Static power for every Worker's components, whether or not the
	// Worker ever materializes: one coalesced record replayed in the
	// exact per-worker accumulation order at settle time.
	m.Meter.AddStaticRepeated(workers,
		energy.StaticLoad{Category: "static.cpu", Power: cfg.Cost.CPUStatic},
		energy.StaticLoad{Category: "static.dram", Power: cfg.Cost.DRAMStatic},
		energy.StaticLoad{Category: "static.fpga", Power: cfg.Cost.FPGAStatic})
	m.Domain = unilogic.NewDomainFrom(m.Tree, machineManagers{m}, m.Eng)
	m.Domain.Policy = cfg.Sharing
	m.Domain.Trace = m.Tracer
	m.Domain.Reg = m.Reg
	m.Cluster = rts.NewClusterFrom(cfg.Balance, machineScheds{m}, m.Net)
	m.Cluster.Trace = m.Tracer
	m.Cluster.Reg = m.Reg
	if cfg.Profile {
		m.Prof = profile.New(m.Eng, m.Tracer, m.Reg, cfg.ProfileInterval)
		m.Prof.AddProbe("tasks.queued", trace.PIDSystem, func() float64 {
			n := 0
			m.EachSched(func(s *rts.Scheduler) { n += s.QueueLen() })
			return float64(n)
		})
		m.Prof.AddProbe("tasks.outstanding", trace.PIDSystem, func() float64 {
			n := 0
			m.EachSched(func(s *rts.Scheduler) { n += s.Outstanding() })
			return float64(n)
		})
		m.Prof.AddProbe("events.pending", trace.PIDSystem, func() float64 {
			return float64(m.Eng.Pending())
		})
	}
	return m
}

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.Eng.Now() }

// EventsRun returns how many events the machine has executed.
func (m *Machine) EventsRun() uint64 { return m.Eng.EventsRun() }

// Metrics returns the machine-wide metric registry.
func (m *Machine) Metrics() *trace.Registry { return m.Reg }

// Submit enqueues a task on worker w's scheduler via the cluster.
func (m *Machine) Submit(w int, t *rts.Task, done func(rts.Device, error)) {
	m.Cluster.Submit(w, t, done)
}

// shell returns worker w's Compute Node shell, waking the node from its
// quiescent summary state if needed.
func (m *Machine) shell(w int) *nodeShell {
	cn := m.Tree.ComputeNodeOf(w)
	sh := m.shells[cn]
	if sh == nil {
		sh = &nodeShell{
			scheds: make([]*rts.Scheduler, m.wpc),
			mgrs:   make([]*accel.Manager, m.wpc),
		}
		m.shells[cn] = sh
	}
	return sh
}

// Sched returns worker w's runtime scheduler, materializing it on first
// touch. Construction schedules no events, so materialization order
// cannot perturb the simulation.
func (m *Machine) Sched(w int) *rts.Scheduler {
	sh := m.shell(w)
	i := w % m.wpc
	if sh.scheds[i] == nil {
		s := rts.NewScheduler(w, m.Domain, m.Eng, m.Meter)
		s.Trace = m.Tracer
		s.Reg = m.Reg
		if m.defPolicy != nil {
			s.Policy = m.defPolicy
		}
		m.Cluster.Attach(s)
		sh.scheds[i] = s
	}
	return sh.scheds[i]
}

// Manager returns worker w's accelerator manager, materializing the
// Worker's fabric, SMMU and manager on first touch.
func (m *Machine) Manager(w int) *accel.Manager {
	sh := m.shell(w)
	i := w % m.wpc
	if sh.mgrs[i] == nil {
		fab := fabric.New(m.Eng, m.Cfg.Fabric, m.Meter)
		fab.Trace = m.Tracer
		fab.TracePID = trace.WorkerPID(w)
		fab.Reg = m.Reg
		// The first 32 accelerator streams get user-level access to
		// the low mappedBytes of the global space (VA == PA) via a
		// stage-1 identity under ASID 1 and a stage-2 one under VMID 1.
		mmu := smmu.New(m.Cfg.SMMU)
		mmu.MapIdentity(1, 1, mappedBytes/int(mmu.PageSize()), smmu.PermRW)
		for sid := w * 1000; sid < w*1000+32; sid++ {
			mmu.BindContext(sid, 1, 1)
		}
		mgr := accel.NewManager(w, fab, m.Space, mmu, m.Meter)
		mgr.Virtualize = m.Cfg.Virtualize
		mgr.Compressed = m.Cfg.CompressedBitstreams
		mgr.Trace = m.Tracer
		mgr.Reg = m.Reg
		if m.faults != nil {
			mgr.OnUnload = m.domainUnload
		}
		sh.mgrs[i] = mgr
	}
	return sh.mgrs[i]
}

// peekSched returns worker w's scheduler without materializing it.
func (m *Machine) peekSched(w int) *rts.Scheduler {
	if sh := m.shells[m.Tree.ComputeNodeOf(w)]; sh != nil {
		return sh.scheds[w%m.wpc]
	}
	return nil
}

// peekManager returns worker w's manager without materializing it.
func (m *Machine) peekManager(w int) *accel.Manager {
	if sh := m.shells[m.Tree.ComputeNodeOf(w)]; sh != nil {
		return sh.mgrs[w%m.wpc]
	}
	return nil
}

// EachSched calls fn for every materialized scheduler in Worker order.
// Unmaterialized Workers are skipped: they have an empty queue, nothing
// outstanding and nothing executed, so for aggregation they contribute
// exactly nothing.
func (m *Machine) EachSched(fn func(*rts.Scheduler)) {
	for w := 0; w < m.Workers(); w++ {
		if s := m.peekSched(w); s != nil {
			fn(s)
		}
	}
}

// EachManager calls fn for every materialized accelerator manager in
// Worker order.
func (m *Machine) EachManager(fn func(*accel.Manager)) {
	for w := 0; w < m.Workers(); w++ {
		if mgr := m.peekManager(w); mgr != nil {
			fn(mgr)
		}
	}
}

// SetPolicy sets the scheduling policy for every Worker: materialized
// schedulers are updated now, future ones inherit it at materialization.
func (m *Machine) SetPolicy(p rts.Policy) {
	m.defPolicy = p
	m.EachSched(func(s *rts.Scheduler) { s.Policy = p })
}

// LiveWorkers returns how many Workers have materialized state.
func (m *Machine) LiveWorkers() int {
	n := 0
	for _, sh := range m.shells {
		if sh == nil {
			continue
		}
		for i := range sh.scheds {
			if sh.scheds[i] != nil || sh.mgrs[i] != nil {
				n++
			}
		}
	}
	return n
}

// QuiescentNodes returns how many Compute Nodes no event has touched:
// they are still summary records with no per-Worker state.
func (m *Machine) QuiescentNodes() int {
	n := 0
	for _, sh := range m.shells {
		if sh == nil {
			n++
		}
	}
	return n
}

// machineScheds adapts the machine's lazy schedulers to
// rts.SchedulerProvider.
type machineScheds struct{ m *Machine }

func (p machineScheds) NumWorkers() int                { return p.m.Workers() }
func (p machineScheds) Sched(w int) *rts.Scheduler     { return p.m.Sched(w) }
func (p machineScheds) PeekSched(w int) *rts.Scheduler { return p.m.peekSched(w) }

// machineManagers adapts the machine's lazy managers to
// unilogic.ManagerProvider.
type machineManagers struct{ m *Machine }

func (p machineManagers) NumWorkers() int              { return p.m.Workers() }
func (p machineManagers) Manager(w int) *accel.Manager { return p.m.Manager(w) }

// Workers returns the Worker count.
func (m *Machine) Workers() int { return m.Tree.NumWorkers() }

// Run drains the event queue and settles static energy; it returns the
// final simulated time.
func (m *Machine) Run() sim.Time {
	m.Prof.Arm()
	t := m.Eng.RunUntilIdle()
	m.Meter.Settle()
	return t
}

// DeployKernel synthesizes src under dir and loads it on worker w,
// registering it with the UNILOGIC domain. It runs the simulation until
// the reconfiguration completes.
func (m *Machine) DeployKernel(src string, dir hls.Directives, w int) (*accel.Instance, error) {
	k, err := hls.Parse(src)
	if err != nil {
		return nil, err
	}
	im, err := hls.Synthesize(k, dir)
	if err != nil {
		return nil, err
	}
	var inst *accel.Instance
	var derr error
	m.Domain.Deploy(w, im, func(in *accel.Instance, err error) {
		inst, derr = in, err
	})
	m.Eng.RunUntilIdle()
	if derr != nil {
		return nil, derr
	}
	if inst == nil {
		return nil, fmt.Errorf("core: deployment of %s never completed", k.Name)
	}
	return inst, nil
}

// Report summarizes a run for humans.
func (m *Machine) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s: %d workers, %d compute nodes\n",
		m.Tree.Name(), m.Workers(), m.Tree.NumComputeNodes())
	fmt.Fprintf(&b, "simulated time: %v, events: %d\n", m.Now(), m.EventsRun())
	fmt.Fprintf(&b, "energy: %v total (mean power %.2f W)\n", m.Meter.Total(), float64(m.Meter.MeanPower()))
	for _, bd := range m.Meter.Breakdown() {
		fmt.Fprintf(&b, "  %-14s %v\n", bd.Category, bd.Energy)
	}
	total, remote := m.Domain.Calls()
	fmt.Fprintf(&b, "accelerator calls: %d (%d remote)\n", total, remote)
	var cpu, hw uint64
	m.EachSched(func(s *rts.Scheduler) {
		cpu += s.Executed(rts.DeviceCPU)
		hw += s.Executed(rts.DeviceHW)
	})
	fmt.Fprintf(&b, "tasks: %d on cpu, %d in hardware\n", cpu, hw)
	if faults := m.faultReport(); faults != "" {
		b.WriteString(faults)
	}
	if breakdown := m.latencyBreakdown(); breakdown != "" {
		b.WriteString(breakdown)
	}
	if util := m.utilizationBreakdown(); util != "" {
		b.WriteString(util)
	}
	return b.String()
}

// utilizationBreakdown renders time-weighted busy fractions from the
// always-on occupancy integrals — no tracing or profiling required —
// and publishes them as util.* summary gauges in the registry.
// Unmaterialized Workers report exactly 0, the value their integrals
// would hold had they been built eagerly and never touched.
func (m *Machine) utilizationBreakdown() string {
	now := m.Now()
	if now <= 0 {
		return ""
	}
	type group struct {
		name string
		vals []float64
	}
	var groups []group
	workers := m.Workers()
	cpus := make([]float64, 0, workers)
	hws := make([]float64, 0, workers)
	ports := make([]float64, 0, workers)
	for w := 0; w < workers; w++ {
		if s := m.peekSched(w); s != nil {
			cpus = append(cpus, s.CPUUtilization(now))
			hws = append(hws, s.HWUtilization(now))
		} else {
			cpus = append(cpus, 0)
			hws = append(hws, 0)
		}
		if mgr := m.peekManager(w); mgr != nil {
			ports = append(ports, mgr.Fab.PortUtilization(now))
		} else {
			ports = append(ports, 0)
		}
	}
	groups = append(groups,
		group{"cpu cores", cpus},
		group{"hw window", hws},
		group{"config port", ports})
	var pipes []float64
	for _, k := range m.Domain.Kernels() {
		for _, in := range m.Domain.Instances(k) {
			pipes = append(pipes, in.PipeUtilization(now))
		}
	}
	if len(pipes) > 0 {
		groups = append(groups, group{"accel pipes", pipes})
	}
	// LinkStats is level-sorted, so levels appear in ascending order.
	byLevel := map[int][]float64{}
	var levels []int
	for _, l := range m.Net.LinkStats(now) {
		if _, ok := byLevel[l.Level]; !ok {
			levels = append(levels, l.Level)
		}
		byLevel[l.Level] = append(byLevel[l.Level], l.Utilization)
	}
	for _, lv := range levels {
		groups = append(groups, group{fmt.Sprintf("noc links L%d", lv), byLevel[lv]})
	}

	var b strings.Builder
	b.WriteString("utilization (busy fraction of simulated time):\n")
	fmt.Fprintf(&b, "  %-16s %8s %8s %6s\n", "component", "mean", "max", "n")
	for _, g := range groups {
		if len(g.vals) == 0 {
			continue
		}
		var sum, max float64
		for _, v := range g.vals {
			sum += v
			if v > max {
				max = v
			}
		}
		mean := sum / float64(len(g.vals))
		fmt.Fprintf(&b, "  %-16s %7.1f%% %7.1f%% %6d\n", g.name, mean*100, max*100, len(g.vals))
		m.Reg.GaugeL("util.mean", trace.L("component", g.name)).Set(mean)
		m.Reg.GaugeL("util.max", trace.L("component", g.name)).Set(max)
	}
	return b.String()
}

// latencyBreakdown renders queue/reconfig/DMA/compute latency quantiles
// from the always-on registry histograms. Stages with no samples are
// skipped; with no samples at all the section is omitted entirely.
func (m *Machine) latencyBreakdown() string {
	stages := []struct{ label, key string }{
		{"queue wait", "lat.queue_us"},
		{"reconfig", "lat.reconfig_us"},
		{"dma", "lat.dma_us"},
		{"coherence", "lat.coh_us"},
		{"compute (cpu)", "lat.compute_cpu_us"},
		{"compute (hw)", "lat.compute_hw_us"},
		{"task total", "lat.task_us"},
	}
	reg := m.Reg
	var b strings.Builder
	any := false
	for _, st := range stages {
		h := reg.FindHistogram(st.key)
		if h == nil || h.Count() == 0 {
			continue
		}
		if !any {
			b.WriteString("latency breakdown (us):\n")
			fmt.Fprintf(&b, "  %-14s %8s %10s %10s %10s %10s\n",
				"stage", "n", "p50", "p90", "p99", "max")
			any = true
		}
		fmt.Fprintf(&b, "  %-14s %8d %10.1f %10.1f %10.1f %10.1f\n",
			st.label, h.Count(),
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
	}
	return b.String()
}

// WorkerDiagram renders Worker w's block diagram — the textual
// counterpart of Fig. 4: CPU cores behind the cache-coherent
// interconnect, the dual-stage SMMU in front of the reconfigurable
// block, DRAM, and the external interconnect port.
func (m *Machine) WorkerDiagram(w int) string {
	mgr := m.Manager(w)
	sched := m.Sched(w)
	fabCfg := mgr.Fab.Config()
	cacheKiB := m.Cfg.Unimem.CacheCfg.Sets * m.Cfg.Unimem.CacheCfg.Ways * 64 / 1024
	var b strings.Builder
	fmt.Fprintf(&b, "Worker %d (compute node %d)  —  Fig. 4 block diagram\n", w, m.Tree.ComputeNodeOf(w))
	fmt.Fprintf(&b, "+--------------------------------------------------------------+\n")
	fmt.Fprintf(&b, "| CPU: %d cores @ %.1f GHz            DRAM: %.1f B/ns, %d banks |\n",
		sched.Cores, sched.CPUModel.ClockGHz,
		m.Cfg.Unimem.DRAMCfg.BytesPerNs, m.Cfg.Unimem.DRAMCfg.Banks)
	fmt.Fprintf(&b, "| L2 cache: %d KiB, %d-way (ACE port, coherent)                |\n",
		cacheKiB, m.Cfg.Unimem.CacheCfg.Ways)
	fmt.Fprintf(&b, "|        --- cache-coherent interconnect (L0) ---              |\n")
	fmt.Fprintf(&b, "| dual-stage SMMU: %d-entry TLB, %d+%d walk levels              |\n",
		m.Cfg.SMMU.TLBEntries, m.Cfg.SMMU.Stage1Levels, m.Cfg.SMMU.Stage2Levels)
	fmt.Fprintf(&b, "| reconfigurable block: %dx%d regions, %d modules loaded        |\n",
		fabCfg.Rows, fabCfg.Cols, mgr.Instances())
	fmt.Fprintf(&b, "|   region: %v\n", fabCfg.PerRegion)
	fmt.Fprintf(&b, "|   config port: %.0f MB/s, virtualization block: %v            |\n",
		fabCfg.PortBytesPerNs*1000, mgr.Virtualize)
	fmt.Fprintf(&b, "| external ACE-lite port -> L1 interconnect (compute node)      |\n")
	fmt.Fprintf(&b, "+--------------------------------------------------------------+\n")
	return b.String()
}
