// Package unimem implements the UNIMEM architecture the ECOSCALE design
// builds on (§2, §4.1, inherited from the EUROSERVER project): a shared,
// partitioned global address space in which Workers communicate "via
// regular loads and stores without global cache coherence".
//
// The consistency model is the paper's: "From the point of view of a
// processor in a multi-node machine, a memory page can be cacheable at
// the local coherent node or at a remote coherent node, but not at both.
// This is the basis of the UNIMEM consistency model, which eliminates
// global-scope cache coherence protocols providing a scalable solution."
//
// Each page therefore has exactly one *owner* (the Worker whose DRAM
// holds it) and exactly one *cacher* (the single Worker allowed to hold
// its lines in cache — by default the owner). Moving the caching right
// flushes and invalidates at the old cacher first, so no stale copy can
// survive. There is no invalidation broadcast, no sharer list, no ack
// storm: that is the entire scalability argument, measured in E3.
//
// Timing is modelled on the simulated interconnect and DRAM; data is held
// in a real backing store so computations produce checkable results.
// Cached writes are applied to the backing store immediately (write-
// through data semantics) while their timing follows write-back rules;
// the single-cacher invariant makes this sound.
package unimem

import (
	"encoding/binary"
	"fmt"

	"ecoscale/internal/mem"
	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// Config shapes a UNIMEM space.
type Config struct {
	// PageBytes is the ownership/caching granularity.
	PageBytes int
	// CacheCfg shapes each Worker's local cache.
	CacheCfg mem.CacheConfig
	// DRAMCfg shapes each Worker's DRAM channel.
	DRAMCfg mem.DRAMConfig
	// CtrlBytes is the size of a request header on the wire.
	CtrlBytes int
}

// DefaultConfig returns 4 KiB pages with default cache and DRAM models.
func DefaultConfig() Config {
	return Config{
		PageBytes: 4096,
		CacheCfg:  mem.DefaultL2Config(),
		DRAMCfg:   mem.DefaultDRAMConfig(),
		CtrlBytes: 16,
	}
}

type page struct {
	owner  int32
	cacher int32
	data   []byte
}

func (p *page) Owner() int  { return int(p.owner) }
func (p *page) Cacher() int { return int(p.cacher) }

// setHome makes w both the owner and the cacher of the page.
func (p *page) setHome(w int) { p.owner, p.cacher = int32(w), int32(w) }

type workerMem struct {
	cache  *mem.Cache
	dram   *mem.DRAM
	atomic *sim.Resource
}

// Space is one UNIMEM global address space (one PGAS domain in ECOSCALE
// terms, spanning the Workers of a Compute Node — or several, when used
// for the whole-system experiments).
type Space struct {
	// Trace, when non-nil, records DMA/stream spans on each Worker's
	// stream lane.
	Trace *trace.Tracer

	net     *noc.Network
	cfg     Config
	reg     *trace.Registry
	pages   []*page // by page number; numbering starts at 1, so pages[0] is nil
	workers []*workerMem

	// Registry series, looked up on first use (see counter).
	ctrs           [numCounters]*trace.Counter
	latDMA, latCoh *trace.Histogram

	lineFree   *lineOp
	streamFree *streamOp
}

// Validate returns the first problem with the config, or nil.
func (c Config) Validate() error {
	if c.PageBytes <= 0 || c.PageBytes%mem.LineBytes != 0 {
		return fmt.Errorf("unimem: PageBytes = %d; the page size must be a positive multiple of the %d-byte line size", c.PageBytes, mem.LineBytes)
	}
	return nil
}

// NewSpace creates a space over the network's workers. Per-worker
// memory-side state (cache, DRAM channel, atomic unit) is a
// flyweight: the slice holds nil until the first access touching that
// worker materializes it, so a 100k-worker space costs one pointer per
// idle worker.
func NewSpace(net *noc.Network, cfg Config, reg *trace.Registry) *Space {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := net.Topology().NumWorkers()
	s := &Space{net: net, cfg: cfg, reg: reg, pages: []*page{nil}}
	s.workers = make([]*workerMem, n)
	return s
}

// wm materializes worker w's memory-side state on first touch. Creation
// schedules no events and consumes no randomness, so when a worker is
// first touched cannot affect simulated behaviour.
func (s *Space) wm(w int) *workerMem {
	m := s.workers[w]
	if m == nil {
		eng := s.Engine()
		m = &workerMem{
			cache:  mem.NewCache(s.cfg.CacheCfg),
			dram:   mem.NewDRAM(eng, s.cfg.DRAMCfg),
			atomic: sim.NewResource(eng, fmt.Sprintf("atomic-%d", w), 1),
		}
		s.workers[w] = m
	}
	return m
}

// Engine returns the simulation engine.
func (s *Space) Engine() *sim.Engine { return s.net.Engine() }

// Network returns the interconnect the space runs on.
func (s *Space) Network() *noc.Network { return s.net }

// PageBytes returns the page granularity.
func (s *Space) PageBytes() int { return s.cfg.PageBytes }

// NumWorkers returns the number of Workers sharing the space.
func (s *Space) NumWorkers() int { return len(s.workers) }

// Cache returns worker w's cache (for inspection in tests/benches).
func (s *Space) Cache(w int) *mem.Cache { return s.wm(w).cache }

// DRAM returns worker w's DRAM channel.
func (s *Space) DRAM(w int) *mem.DRAM { return s.wm(w).dram }

// counter names one unimem.* registry counter.
type counter int

const (
	ctrCacheHits counter = iota
	ctrCacheFills
	ctrLocalUncached
	ctrRemoteReads
	ctrRemoteWrites
	ctrWritebacks
	ctrCacherMoves
	ctrAtomics
	ctrMigrations
	ctrEvacuations
	ctrStreamBytes
	numCounters
)

var counterNames = [numCounters]string{
	ctrCacheHits:     "unimem.cache_hits",
	ctrCacheFills:    "unimem.cache_fills",
	ctrLocalUncached: "unimem.local_uncached",
	ctrRemoteReads:   "unimem.remote_reads",
	ctrRemoteWrites:  "unimem.remote_writes",
	ctrWritebacks:    "unimem.writebacks",
	ctrCacherMoves:   "unimem.cacher_moves",
	ctrAtomics:       "unimem.atomics",
	ctrMigrations:    "unimem.migrations",
	ctrEvacuations:   "unimem.evacuations",
	ctrStreamBytes:   "unimem.stream_bytes",
}

// counter returns registry counter c, looking it up on first use: the
// registry lists only the series a run touched, so they cannot be
// created up front. The space must have a registry.
func (s *Space) counter(c counter) *trace.Counter {
	ctr := s.ctrs[c]
	if ctr == nil {
		ctr = s.reg.Counter(counterNames[c])
		s.ctrs[c] = ctr
	}
	return ctr
}

// latency returns the latency histogram cached in *h, looking it up on
// first use like counter.
func (s *Space) latency(h **trace.Histogram, name string) *trace.Histogram {
	if *h == nil {
		*h = trace.LatencyHistogram(s.reg, name)
	}
	return *h
}

// count bumps counter c when the space has a registry.
func (s *Space) count(c counter) {
	if s.reg != nil {
		s.counter(c).Inc()
	}
}

// Alloc reserves size bytes of globally addressable memory owned by
// worker owner and returns the base address. Allocations are page-
// granular and never recycled (the experiments build fresh spaces).
func (s *Space) Alloc(owner, size int) uint64 {
	if owner < 0 || owner >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad owner %d", owner))
	}
	if size <= 0 {
		panic("unimem: Alloc size must be positive")
	}
	npages := (size + s.cfg.PageBytes - 1) / s.cfg.PageBytes
	base := uint64(len(s.pages)) * uint64(s.cfg.PageBytes)
	for i := 0; i < npages; i++ {
		p := &page{data: make([]byte, s.cfg.PageBytes)}
		p.setHome(owner)
		s.pages = append(s.pages, p)
	}
	return base
}

// lookup returns the page holding addr, or nil if it is unallocated.
func (s *Space) lookup(addr uint64) *page {
	if no := addr / uint64(s.cfg.PageBytes); no < uint64(len(s.pages)) {
		return s.pages[no]
	}
	return nil
}

func (s *Space) pageOf(addr uint64) *page {
	p := s.lookup(addr)
	if p == nil {
		panic(fmt.Sprintf("unimem: access to unallocated address %#x", addr))
	}
	return p
}

// OwnerOf returns the Worker whose DRAM holds the page containing addr.
func (s *Space) OwnerOf(addr uint64) int { return s.pageOf(addr).Owner() }

// CacherOf returns the single Worker allowed to cache the page.
func (s *Space) CacherOf(addr uint64) int { return s.pageOf(addr).Cacher() }

// checkSpan panics when [addr, addr+size) crosses a page boundary; the
// bulk helpers split transfers so individual ops never do.
func (s *Space) checkSpan(addr uint64, size int) {
	if size <= 0 {
		panic("unimem: access size must be positive")
	}
	if int(addr%uint64(s.cfg.PageBytes))+size > s.cfg.PageBytes {
		panic(fmt.Sprintf("unimem: access %#x+%d crosses a page boundary", addr, size))
	}
}

// SetCacher moves the page's caching right to node, flushing and
// invalidating the old cacher first so the one-copy invariant holds.
// done runs when the transfer of rights (including flush traffic) is
// complete.
func (s *Space) SetCacher(addr uint64, node int, done func()) {
	p := s.pageOf(addr)
	if node < 0 || node >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad cacher %d", node))
	}
	if p.Cacher() == node {
		if done != nil {
			done()
		}
		return
	}
	old := p.Cacher()
	pageBase := addr / uint64(s.cfg.PageBytes) * uint64(s.cfg.PageBytes)
	// An unmaterialized old cacher has an empty cache: nothing to flush.
	dirty := 0
	if om := s.workers[old]; om != nil {
		_, dirty = om.cache.InvalidateRange(pageBase, s.cfg.PageBytes)
	}
	s.count(ctrCacherMoves)
	finish := func() {
		p.cacher = int32(node)
		if done != nil {
			done()
		}
	}
	if dirty == 0 || old == p.Owner() {
		// Nothing to push over the wire (clean, or dirty lines already
		// live in the owner's DRAM).
		finish()
		return
	}
	// Write the dirty lines back to the owner before handing off.
	owner := p.Owner()
	start := s.Engine().Now()
	wg := sim.NewWaitGroup(s.Engine(), dirty)
	for i := 0; i < dirty; i++ {
		s.net.Send(old, owner, mem.LineBytes, noc.Store, func() {
			s.wm(owner).dram.Access(mem.LineBytes, wg.DoneOne)
		})
	}
	wg.Wait(func() {
		s.observeCoh(old, "cacher-move", start, int64(dirty*mem.LineBytes))
		finish()
	})
}

// observeCoh records one completed timed coherence action (a cacher
// hand-off writeback or a page migration) as a coherence span and a
// latency-histogram sample — the UNIMEM/coherence category of the
// profiler's critical-path attribution.
func (s *Space) observeCoh(node int, name string, start sim.Time, bytes int64) {
	now := s.Engine().Now()
	s.Trace.Add(trace.Span{Name: name, Cat: trace.CatCoh,
		Start: int64(start), End: int64(now),
		PID: trace.WorkerPID(node), TID: trace.TIDDMA, Arg: bytes})
	if s.reg != nil {
		s.latency(&s.latCoh, "lat.coh_us").Observe((now - start).Micros())
	}
}

// Read performs a load of size bytes at addr by worker node, delivering
// the data to done when it arrives. The path depends on the node's
// relationship to the page, exactly as §4.1 describes:
//
//   - node == cacher: cache hit, or line fill from the owner's DRAM
//     (local or over the interconnect).
//   - node == owner but not cacher: DRAM access, uncached.
//   - otherwise: uncached remote load — a round trip to the owner.
func (s *Space) Read(node int, addr uint64, size int, done func(data []byte)) {
	s.checkSpan(addr, size)
	l := s.newLine(node, addr, size)
	if done != nil {
		buf := make([]byte, size)
		l.dst, l.done = buf, func() { done(buf) }
	}
	s.issue(l, addr, false)
}

// Write performs a store of data at addr by worker node. done runs when
// the store is globally performed (at the owner, or dirty in the single
// legal cache).
func (s *Space) Write(node int, addr uint64, data []byte, done func()) {
	s.checkSpan(addr, len(data))
	l := s.newLine(node, addr, len(data))
	copy(l.p.data[l.off:], data) // data plane: applied immediately (see package doc)
	l.done = done
	s.issue(l, addr, true)
}

// WriteBack performs the timed store path of Write for size bytes at
// addr without touching the bytes. Accelerators stream their results out
// as an identity write-back of the page-final data, so only the traffic,
// cache effects and counters are modeled here; copying the bytes onto
// themselves would change nothing.
func (s *Space) WriteBack(node int, addr uint64, size int, done func()) {
	s.checkSpan(addr, size)
	l := s.newLine(node, addr, size)
	l.done = done
	s.issue(l, addr, true)
}

// ReadWord loads a 64-bit little-endian word.
func (s *Space) ReadWord(node int, addr uint64, done func(v uint64)) {
	s.checkSpan(addr, 8)
	l := s.newLine(node, addr, 8)
	l.word = done
	s.issue(l, addr, false)
}

// WriteWord stores a 64-bit little-endian word.
func (s *Space) WriteWord(node int, addr uint64, v uint64, done func()) {
	s.checkSpan(addr, 8)
	l := s.newLine(node, addr, 8)
	binary.LittleEndian.PutUint64(l.p.data[l.off:], v)
	l.done = done
	s.issue(l, addr, true)
}

// lineOp is one pooled page-local access walking a §4.1 timing path
// through static callbacks. Its completion is the stream's lineDone,
// done() or word(v), whichever is set; dst, when set, receives the bytes
// at delivery. An atomic runs rmw on the word at the owner and completes
// with word(old).
type lineOp struct {
	s      *Space
	p      *page
	off    uint64 // offset of the access in its page
	node   int
	owner  int
	size   int      // bytes moved at the owner's DRAM
	resp   int      // bytes of the owner's response
	kind   noc.Kind // class of the request and its response
	dst    []byte
	stream *streamOp
	done   func()
	word   func(uint64)
	rmw    func(uint64) uint64
	old    uint64
	next   *lineOp
}

// newLine takes a lineOp from the free list for an access of size bytes
// at addr by node; the owner is fixed at issue, as the request leaves.
func (s *Space) newLine(node int, addr uint64, size int) *lineOp {
	p := s.pageOf(addr)
	l := s.getLine()
	l.s, l.p, l.off = s, p, addr%uint64(s.cfg.PageBytes)
	l.node, l.owner, l.size = node, p.Owner(), size
	return l
}

// getLine pops a cleared lineOp off the free list.
func (s *Space) getLine() *lineOp {
	l := s.lineFree
	if l == nil {
		return &lineOp{}
	}
	s.lineFree, l.next = l.next, nil
	return l
}

func (s *Space) putLine(l *lineOp) {
	*l = lineOp{next: s.lineFree}
	s.lineFree = l
}

// issue starts the access at addr on the path its node's relationship
// to the page selects. A store is timed like a load on every cached
// path (write-allocate: fetch the line, then dirty it locally); only the
// uncached remote store differs, as a posted write plus an ack.
func (s *Space) issue(l *lineOp, addr uint64, write bool) {
	node, owner := l.node, l.owner
	w := s.wm(node)
	switch {
	case l.p.Cacher() == node:
		res := w.cache.Access(addr, write)
		s.handleEviction(node, res)
		if res.Hit {
			s.count(ctrCacheHits)
			s.Engine().AfterCall(s.cfg.CacheCfg.HitLatency, lineDeliver, l)
			return
		}
		s.count(ctrCacheFills)
		if owner == node {
			w.dram.AccessCall(mem.LineBytes, lineDeliver, l)
			return
		}
		l.size, l.resp, l.kind = mem.LineBytes, mem.LineBytes, noc.Load
		s.net.SendCall(node, owner, s.cfg.CtrlBytes, noc.Load, lineAtOwner, l)
	case owner == node:
		s.count(ctrLocalUncached)
		w.dram.AccessCall(l.size, lineDeliver, l)
	case write:
		s.count(ctrRemoteWrites)
		l.resp, l.kind = s.cfg.CtrlBytes, noc.Store
		s.net.SendCall(node, owner, l.size+s.cfg.CtrlBytes, noc.Store, lineAtOwner, l)
	default:
		s.count(ctrRemoteReads)
		l.resp, l.kind = l.size, noc.Load
		s.net.SendCall(node, owner, s.cfg.CtrlBytes, noc.Load, lineAtOwner, l)
	}
}

// lineAtOwner serves a request that reached the owner from its DRAM.
func lineAtOwner(a any) {
	l := a.(*lineOp)
	l.s.wm(l.owner).dram.AccessCall(l.size, lineRespond, l)
}

// lineRespond sends the owner's response back to the requester.
func lineRespond(a any) {
	l := a.(*lineOp)
	l.s.net.SendCall(l.owner, l.node, l.resp, l.kind, lineDeliver, l)
}

// lineDeliver completes the access at the requester.
func lineDeliver(a any) {
	l := a.(*lineOp)
	if l.dst != nil {
		copy(l.dst, l.p.data[l.off:])
	}
	var v uint64
	if l.word != nil {
		v = binary.LittleEndian.Uint64(l.p.data[l.off:])
	}
	stream, done, word := l.stream, l.done, l.word
	l.s.putLine(l) // recycle first: the completion may issue the next line
	switch {
	case stream != nil:
		stream.lineDone()
	case done != nil:
		done()
	case word != nil:
		word(v)
	}
}

// handleEviction charges the write-back cost of a dirty eviction from
// node's cache: to local DRAM when node owns the victim page, or across
// the interconnect to the victim's owner.
func (s *Space) handleEviction(node int, res mem.AccessResult) {
	if !res.Evicted || !res.WritebackNeeded {
		return
	}
	vp := s.lookup(res.EvictedAddr)
	if vp == nil {
		return
	}
	s.count(ctrWritebacks)
	vo := vp.Owner()
	if vo == node {
		s.wm(node).dram.AccessCall(mem.LineBytes, nil, nil)
		return
	}
	l := s.getLine()
	l.s, l.owner = s, vo
	s.net.SendCall(node, vo, mem.LineBytes, noc.Store, evictAtOwner, l)
}

// evictAtOwner lands a written-back line in its owner's DRAM.
func evictAtOwner(a any) {
	l := a.(*lineOp)
	s, owner := l.s, l.owner
	s.putLine(l)
	s.wm(owner).dram.AccessCall(mem.LineBytes, nil, nil)
}

// Peek reads data directly from the backing store with no timing; for
// result verification in tests and benches.
func (s *Space) Peek(addr uint64, size int) []byte {
	s.checkSpan(addr, size)
	p := s.pageOf(addr)
	off := addr % uint64(s.cfg.PageBytes)
	out := make([]byte, size)
	copy(out, p.data[off:])
	return out
}

// PeekWord reads a 64-bit word with no timing.
func (s *Space) PeekWord(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(s.Peek(addr, 8))
}

// AtomicRMW performs an atomic read-modify-write at the page owner: the
// operation travels to the owner, executes there under the owner's
// atomic unit (serializing concurrent atomics), and the old value
// returns. This is the remote-synchronization path that makes small
// load/store messages preferable to DMA (§4.1).
func (s *Space) AtomicRMW(node int, addr uint64, f func(old uint64) uint64, done func(old uint64)) {
	s.checkSpan(addr, 8)
	l := s.newLine(node, addr, 8)
	l.rmw, l.word = f, done
	s.count(ctrAtomics)
	if node == l.owner {
		atomicAtOwner(l)
		return
	}
	s.net.SendCall(node, l.owner, s.cfg.CtrlBytes, noc.Sync, atomicAtOwner, l)
}

// atomicAtOwner queues an atomic that reached its owner on the owner's
// atomic unit.
func atomicAtOwner(a any) {
	l := a.(*lineOp)
	l.s.wm(l.owner).atomic.AcquireCall(atomicAcquired, l)
}

// atomicAcquired reads the word from the owner's DRAM under the unit.
func atomicAcquired(a any) {
	l := a.(*lineOp)
	l.s.wm(l.owner).dram.AccessCall(8, atomicExec, l)
}

// atomicExec transforms and writes the word, frees the atomic unit and
// returns the old value to the requester.
func atomicExec(a any) {
	l := a.(*lineOp)
	s, word := l.s, l.p.data[l.off:]
	l.old = binary.LittleEndian.Uint64(word)
	binary.LittleEndian.PutUint64(word, l.rmw(l.old))
	s.wm(l.owner).atomic.Release()
	if l.node == l.owner {
		atomicDone(l)
		return
	}
	s.net.SendCall(l.owner, l.node, s.cfg.CtrlBytes, noc.Sync, atomicDone, l)
}

// atomicDone completes the atomic at the requester with the old value.
func atomicDone(a any) {
	l := a.(*lineOp)
	done, old := l.word, l.old
	l.s.putLine(l) // recycle first: done may issue the next atomic
	if done != nil {
		done(old)
	}
}

// MigratePage moves the page containing addr to a new owner: the old
// cacher is flushed, the page bytes stream over as a DMA transfer, and
// ownership plus caching right land at the destination. This is the
// "move tasks and processes close to data instead of moving data around"
// machinery's inverse — data moves when the runtime decides locality is
// better served that way.
func (s *Space) MigratePage(addr uint64, newOwner int, done func()) {
	p := s.pageOf(addr)
	if newOwner < 0 || newOwner >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad owner %d", newOwner))
	}
	if p.Owner() == newOwner {
		if done != nil {
			done()
		}
		return
	}
	origOwner := p.Owner()
	s.count(ctrMigrations)
	start := s.Engine().Now()
	s.SetCacher(addr, origOwner, func() {
		old := p.Owner()
		s.net.DMATransfer(old, newOwner, s.cfg.PageBytes, noc.DefaultDMAConfig(), func() {
			s.wm(newOwner).dram.Access(s.cfg.PageBytes, func() {
				p.setHome(newOwner)
				s.observeCoh(origOwner, "migrate", start, int64(s.cfg.PageBytes))
				if done != nil {
					done()
				}
			})
		})
	})
}
