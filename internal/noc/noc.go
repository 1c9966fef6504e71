// Package noc models the multi-layer interconnect of the ECOSCALE
// architecture (Fig. 3): an L0 interconnect inside each Worker, an L1
// interconnect joining the Workers of a Compute Node, and higher layers
// joining Compute Nodes, chassis and cabinets. It carries the transaction
// types the paper requires of the UNIMEM fabric — "load and store
// commands, DMA operations, interrupts, and synchronization between the
// Workers" (§4.1) — with per-level bandwidth, per-hop latency, and link
// contention, and charges flit-hop energy to a Meter.
//
// Message transfers are the single hottest event producer in the
// simulator, so the per-message control state (the hop walk of Send, the
// chunk loop of DMATransfer, the line window of LoadStoreTransfer) lives
// in per-network pooled operation structs driven by static callbacks
// rather than fresh closures: steady-state traffic allocates nothing.
//
// Each direction of a tree link is a link: a count of busy transfer
// slots and a FIFO of the messages waiting for one. A message is its own
// waiter. It resolves each hop's link and hold time when it reaches the
// hop, holds the link for one event, and on expiry hands the slot to the
// oldest waiting message before it moves on, so a hop costs one event
// and no allocation.
package noc

import (
	"fmt"

	"ecoscale/internal/energy"
	"ecoscale/internal/intern"
	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
	"ecoscale/internal/trace"
)

// Kind classifies a transaction on the interconnect.
type Kind int

// Transaction kinds, per §4.1.
const (
	Load Kind = iota
	Store
	DMA
	Interrupt
	Sync
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case DMA:
		return "dma"
	case Interrupt:
		return "interrupt"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// FlitBytes is the flit size used for energy accounting.
const FlitBytes = 16

// LevelConfig describes one interconnect layer.
type LevelConfig struct {
	// BytesPerNs is the serialization bandwidth of one link at this level.
	BytesPerNs float64
	// HopLatency is the router/arbiter latency added per hop at this
	// level, independent of message size.
	HopLatency sim.Time
	// OffChip marks levels whose flits cost Link energy rather than
	// on-chip NoC-hop energy.
	OffChip bool
}

// Config configures a Network: one LevelConfig per tree level above the
// leaves (index 0 = the L0/worker port level).
type Config struct {
	Levels []LevelConfig
	// LinkCapacity is how many messages a single link serializes
	// concurrently (ports per link); 1 models a classic shared link.
	LinkCapacity int
}

// DefaultConfig returns a configuration for a tree with the given number
// of link levels (tree.MaxHops()): fast wide links on chip, slower and
// higher-latency links as the hierarchy ascends, calibrated to 2016-era
// AXI/CCI on chip and serial links between nodes.
func DefaultConfig(levels int) Config {
	cfg := Config{LinkCapacity: 1}
	for l := 0; l < levels; l++ {
		lc := LevelConfig{}
		switch {
		case l == 0: // L0: inside the Worker (CCI-class)
			lc.BytesPerNs = 32
			lc.HopLatency = 15 * sim.Nanosecond
		case l == 1: // L1: between Workers of a Compute Node
			lc.BytesPerNs = 16
			lc.HopLatency = 60 * sim.Nanosecond
			lc.OffChip = true
		default: // higher layers: inter-node serial links
			lc.BytesPerNs = 8
			lc.HopLatency = sim.Time(200*(l-1)) * sim.Nanosecond
			lc.OffChip = true
		}
		cfg.Levels = append(cfg.Levels, lc)
	}
	return cfg
}

// Network is the interconnect instance over a tree.
type Network struct {
	eng   *sim.Engine
	tree  *topo.Tree
	cfg   Config
	meter *energy.Meter
	reg   *trace.Registry

	// links[level][2*group+dir], dir 0=up, 1=down: one row per tree
	// level, sized at construction, each link created on first use.
	links [][]*link
	// acct[level] is the energy account a level's flit-hops charge:
	// "link" for off-chip levels, "noc" otherwise. nil without a meter.
	acct []*energy.Account

	// Cached registry series: counter lookup concatenates strings, so the
	// hot count() path resolves each series once up front.
	ctrMsgs  [numKinds]*trace.Counter
	ctrBytes *trace.Counter
	ctrHops  *trace.Counter
	statHops *trace.Stat

	// Operation pools (free lists).
	sendFree *sendOp
	rtFree   *rtOp
	dmaFree  *dmaOp
	lsFree   *lsOp
}

// NewNetwork builds a network over tree t. Each tree group gets its own
// up/down link pair so contention is localized the way Fig. 3's
// multi-layer interconnect implies.
func NewNetwork(eng *sim.Engine, t *topo.Tree, cfg Config, meter *energy.Meter, reg *trace.Registry) *Network {
	if len(cfg.Levels) < t.MaxHops() {
		panic(fmt.Sprintf("noc: config has %d levels, topology needs %d", len(cfg.Levels), t.MaxHops()))
	}
	if cfg.LinkCapacity <= 0 {
		cfg.LinkCapacity = 1
	}
	// Identically-shaped networks (every Worker port, every same-level
	// link) share one canonical level table instead of one copy each.
	cfg.Levels = intern.CanonicalSlice(cfg.Levels)
	n := &Network{eng: eng, tree: t, cfg: cfg, meter: meter, reg: reg}
	n.links = make([][]*link, t.MaxHops())
	for l := range n.links {
		n.links[l] = make([]*link, 2*t.NumWorkers()/t.GroupSize(l))
	}
	if meter != nil {
		n.acct = make([]*energy.Account, len(cfg.Levels))
		for l, lc := range cfg.Levels {
			cat := "noc"
			if lc.OffChip {
				cat = "link"
			}
			n.acct[l] = meter.Account(cat)
		}
	}
	if reg != nil {
		for k := Kind(0); k < numKinds; k++ {
			n.ctrMsgs[k] = reg.Counter("noc.msgs." + k.String())
		}
		n.ctrBytes = reg.Counter("noc.bytes")
		n.ctrHops = reg.Counter("noc.hops")
		n.statHops = reg.Stat("noc.hopdist")
	}
	return n
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Topology returns the tree the network spans.
func (n *Network) Topology() *topo.Tree { return n.tree }

// link is one direction of a tree link: its transfer slots, with the
// stats LinkStats reports, and a FIFO of the messages waiting for one,
// threaded through sendOp.next.
type link struct {
	sim.Occupancy
	head, tail *sendOp
	queued     int
}

func (n *Network) link(level, group, dir int) *link {
	slot := &n.links[level][2*group+dir]
	if *slot == nil {
		*slot = &link{Occupancy: sim.NewOccupancy(n.cfg.LinkCapacity)}
	}
	return *slot
}

// acquire gives op a slot of l and holds it for op.hold, or queues op
// behind the messages already waiting for l.
func (n *Network) acquire(l *link, op *sendOp) {
	op.link = l
	now := n.eng.Now()
	if l.Free() {
		l.Take(now)
		n.eng.AfterCall(op.hold, hopDone, op)
		return
	}
	op.start = now
	if l.tail == nil {
		l.head = op
	} else {
		l.tail.next = op
	}
	l.tail = op
	l.queued++
	l.Queued(l.queued)
}

// hopDone ends op's hold of its link. The slot passes straight to the
// oldest waiting message, which starts its own hold now; op then moves
// on to its next hop.
func hopDone(a any) {
	op := a.(*sendOp)
	n, l := op.n, op.link
	now := n.eng.Now()
	if w := l.head; w != nil {
		l.head = w.next
		if l.head == nil {
			l.tail = nil
		}
		w.next = nil
		l.queued--
		l.Pass(w.start, now)
		n.eng.AfterCall(w.hold, hopDone, w)
	} else {
		l.Return(now)
	}
	sendStep(op)
}

// LinkStat is one link's identity and time-weighted load, for the
// profiler's utilization tables and counter tracks.
type LinkStat struct {
	Level, Group, Dir int
	Name              string
	// Utilization is the fraction of [0, now] the link's transfer slots
	// were occupied.
	Utilization float64
	// Waited is the summed queue wait across all acquisitions.
	Waited sim.Time
	// Grants counts completed slot acquisitions.
	Grants uint64
	// MaxQueue is the peak number of messages parked behind the link.
	MaxQueue int
}

// LinkStats returns every link instantiated so far with its utilization
// over [0, now], in (level, group, dir) order for deterministic output.
// A link is created when the first message or flap reaches it, so links
// never reached are absent. Names are formatted here, not kept.
func (n *Network) LinkStats(now sim.Time) []LinkStat {
	var out []LinkStat
	for level, row := range n.links {
		for i, l := range row {
			if l == nil {
				continue
			}
			out = append(out, LinkStat{
				Level: level, Group: i / 2, Dir: i % 2,
				Name:        fmt.Sprintf("link-l%d-g%d-d%d", level, i/2, i%2),
				Utilization: l.Utilization(now), Waited: l.TotalWait(),
				Grants: l.Acquisitions(), MaxQueue: l.MaxQueue(),
			})
		}
	}
	return out
}

// serialization returns the time to push size bytes through a level link.
func (n *Network) serialization(level, size int) sim.Time {
	bw := n.cfg.Levels[level].BytesPerNs
	ns := float64(size) / bw
	return sim.Time(ns * float64(sim.Nanosecond))
}

// Latency returns the zero-contention latency of a size-byte message from
// src to dst: per-hop router latency plus per-link serialization
// (store-and-forward at each level boundary).
func (n *Network) Latency(src, dst, size int) sim.Time {
	if src == dst {
		return 0
	}
	var total sim.Time
	lca := n.tree.LCALevel(src, dst)
	for l := 0; l < lca; l++ {
		lc := n.cfg.Levels[l]
		total += 2 * (lc.HopLatency + n.serialization(l, size)) // up and down
	}
	return total
}

// sendOp is a pooled in-flight message and its own link waiter. Hop i
// of hops climbs level i from src for i < hops/2 and descends level
// hops-1-i to dst after that. fn(arg) is the delivery notification.
type sendOp struct {
	n              *Network
	src, dst, size int
	i, hops        int
	link           *link    // the link held or waited for
	hold           sim.Time // how long the message holds link
	start          sim.Time // when its wait for link began
	fn             func(any)
	arg            any
	next           *sendOp // free list, or link's wait queue
}

func (n *Network) getSendOp() *sendOp {
	if op := n.sendFree; op != nil {
		n.sendFree = op.next
		op.next = nil
		return op
	}
	return &sendOp{}
}

// sendStep issues the message on its next link, or delivers it when the
// path is exhausted. Each hop holds its link for the level's router
// latency plus the message's serialization.
func sendStep(op *sendOp) {
	n := op.n
	if op.i == op.hops {
		fn, arg := op.fn, op.arg
		*op = sendOp{next: n.sendFree}
		n.sendFree = op
		if fn != nil {
			fn(arg)
		}
		return
	}
	level, w, dir := op.i, op.src, 0
	if op.i >= op.hops/2 {
		level, w, dir = op.hops-1-op.i, op.dst, 1
	}
	op.i++
	op.hold = n.cfg.Levels[level].HopLatency + n.serialization(level, op.size)
	n.acquire(n.link(level, w/n.tree.GroupSize(level), dir), op)
}

// Send delivers a one-way message of size bytes from src to dst, calling
// done, which may be nil, at delivery time; see SendCall.
func (n *Network) Send(src, dst, size int, kind Kind, done func()) {
	n.SendCall(src, dst, size, kind, sim.RunFunc, done)
}

// SendCall delivers a one-way message of size bytes from src to dst and
// runs fn(arg), where fn may be nil, at delivery time without boxing a
// closure at the call site. Contention on shared links delays delivery.
// A self-send completes immediately in the current event.
func (n *Network) SendCall(src, dst, size int, kind Kind, fn func(any), arg any) {
	hops := n.tree.LCALevel(src, dst)
	n.count(kind, hops, size)
	if src == dst {
		if fn != nil {
			fn(arg)
		}
		return
	}
	op := n.getSendOp()
	op.n, op.src, op.dst, op.size, op.hops = n, src, dst, size, 2*hops
	op.fn, op.arg = fn, arg
	sendStep(op)
}

// FlapLink takes both directions of worker w's level-level link out of
// service for down simulated time: every transfer slot of the up and down
// link is seized, so in-flight messages finish but new ones queue behind
// the outage in deterministic FIFO order — a transient link failure, not
// a drop (UNIMEM transactions are never lost, only delayed). It reports
// whether a link was flapped (false for an out-of-range level or a
// non-positive outage). Each slot is seized by a one-hop message that
// holds it for down and delivers nothing.
func (n *Network) FlapLink(w, level int, down sim.Time) bool {
	if level < 0 || level >= n.tree.MaxHops() || down <= 0 {
		return false
	}
	group := n.tree.GroupOf(level, w)
	for dir := 0; dir < 2; dir++ {
		l := n.link(level, group, dir)
		for i := 0; i < l.Capacity(); i++ {
			op := n.getSendOp()
			op.n, op.i, op.hops, op.hold = n, 1, 1, down
			n.acquire(l, op)
		}
	}
	return true
}

// rtOp is a pooled request/response exchange.
type rtOp struct {
	n        *Network
	src, dst int
	respSize int
	kind     Kind
	done     func()
	next     *rtOp
}

func rtRespond(a any) {
	op := a.(*rtOp)
	n, src, dst, respSize, kind, done := op.n, op.src, op.dst, op.respSize, op.kind, op.done
	*op = rtOp{next: n.rtFree}
	n.rtFree = op
	n.Send(dst, src, respSize, kind, done)
}

// RoundTrip models a request/response pair (e.g. a remote load): a
// reqSize-byte request from src to dst followed by a respSize-byte
// response back, calling done when the response arrives.
func (n *Network) RoundTrip(src, dst, reqSize, respSize int, kind Kind, done func()) {
	op := n.rtFree
	if op != nil {
		n.rtFree = op.next
	} else {
		op = &rtOp{}
	}
	*op = rtOp{n: n, src: src, dst: dst, respSize: respSize, kind: kind, done: done}
	n.SendCall(src, dst, reqSize, kind, rtRespond, op)
}

// count records a message of size bytes over hops hops in the registry
// and charges its flit-hop energy to the meter.
func (n *Network) count(kind Kind, hops, size int) {
	if n.reg != nil {
		n.ctrMsgs[kind].Inc()
		n.ctrBytes.Add(uint64(size))
	}
	if n.reg != nil && hops > 0 {
		n.ctrHops.Add(uint64(hops))
		n.statHops.Observe(float64(hops))
	}
	if n.meter == nil || hops == 0 {
		return
	}
	flits := (size + FlitBytes - 1) / FlitBytes
	if flits == 0 {
		flits = 1
	}
	for l := 0; l < hops; l++ {
		per := n.meter.Model.NoCHopPerFlit
		if n.cfg.Levels[l].OffChip {
			per = n.meter.Model.LinkPerFlit
		}
		n.acct[l].Charge(2 * energy.Joules(flits) * per)
	}
}

// DMAConfig models a descriptor-based DMA engine: the paper argues DMA
// "operations ... are not efficient for small data transfers such as
// messages to synchronize remote threads" (§4.1) because of exactly these
// fixed costs.
type DMAConfig struct {
	// Setup is the software cost of building the descriptor and writing
	// the doorbell before any data moves.
	Setup sim.Time
	// Completion is the interrupt/poll cost after the data lands.
	Completion sim.Time
	// ChunkBytes is the largest burst a single DMA packet carries.
	ChunkBytes int
}

// DefaultDMAConfig returns a descriptor-DMA cost model (couple of µs of
// setup + completion, 4 KiB bursts).
func DefaultDMAConfig() DMAConfig {
	return DMAConfig{
		Setup:      1200 * sim.Nanosecond,
		Completion: 800 * sim.Nanosecond,
		ChunkBytes: 4096,
	}
}

// dmaOp is a pooled in-flight DMA transfer.
type dmaOp struct {
	n         *Network
	src, dst  int
	remaining int
	cfg       DMAConfig
	done      func()
	next      *dmaOp
}

func dmaSendNext(a any) {
	op := a.(*dmaOp)
	if op.remaining <= 0 {
		op.n.eng.AfterCall(op.cfg.Completion, dmaComplete, op)
		return
	}
	chunk := op.remaining
	if chunk > op.cfg.ChunkBytes {
		chunk = op.cfg.ChunkBytes
	}
	op.remaining -= chunk
	op.n.SendCall(op.src, op.dst, chunk, DMA, dmaSendNext, op)
}

func dmaComplete(a any) {
	op := a.(*dmaOp)
	n, done := op.n, op.done
	*op = dmaOp{next: n.dmaFree}
	n.dmaFree = op
	if done != nil {
		done()
	}
}

// DMATransfer moves size bytes from src to dst through the DMA engine:
// fixed setup, chunked pipelined bursts, fixed completion.
func (n *Network) DMATransfer(src, dst, size int, cfg DMAConfig, done func()) {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 4096
	}
	op := n.dmaFree
	if op != nil {
		n.dmaFree = op.next
	} else {
		op = &dmaOp{}
	}
	*op = dmaOp{n: n, src: src, dst: dst, remaining: size, cfg: cfg, done: done}
	n.eng.AfterCall(cfg.Setup, dmaSendNext, op)
}

// lsOp is a pooled load/store stream: lines issue in order as the window
// resource grants, and the transfer completes when every line has landed.
type lsOp struct {
	n        *Network
	src, dst int
	size     int
	lines    int
	issued   int
	landed   int
	window   *sim.Resource
	winCap   int
	done     func()
	next     *lsOp
}

func lsIssue(a any) {
	op := a.(*lsOp)
	const line = 64
	i := op.issued
	op.issued++
	sz := line
	if i == op.lines-1 && op.size%line != 0 && op.size > 0 {
		sz = op.size % line
	}
	op.n.SendCall(op.src, op.dst, sz, Store, lsLanded, op)
}

func lsLanded(a any) {
	op := a.(*lsOp)
	op.window.Release()
	op.landed++
	if op.landed < op.lines {
		return
	}
	n, done := op.n, op.done
	window, winCap := op.window, op.winCap
	*op = lsOp{window: window, winCap: winCap, next: n.lsFree}
	n.lsFree = op
	if done != nil {
		done()
	}
}

// LoadStoreTransfer moves size bytes using pipelined cache-line-sized
// stores (the UNIMEM direct load/store path): no setup cost, but each
// line is its own transaction. window lines may be in flight at once
// (write-combining depth); done runs when the last line lands.
func (n *Network) LoadStoreTransfer(src, dst, size, window int, done func()) {
	const line = 64
	if window <= 0 {
		window = 1
	}
	lines := (size + line - 1) / line
	if lines == 0 {
		lines = 1
	}
	op := n.lsFree
	if op != nil {
		n.lsFree = op.next
		op.next = nil
	} else {
		op = &lsOp{}
	}
	if op.window == nil || op.winCap != window {
		op.window = sim.NewResource(n.eng, "ls-window", window)
		op.winCap = window
	}
	op.n, op.src, op.dst, op.size, op.lines, op.done = n, src, dst, size, lines, done
	op.issued, op.landed = 0, 0
	for i := 0; i < lines; i++ {
		op.window.AcquireCall(lsIssue, op)
	}
}
