// Package ocl is the ECOSCALE programming environment of §4.2/§4.4: an
// OpenCL-flavoured host API extended with the paper's three runtime
// extensions — (1) PGAS data scoping (buffers are placed in, migrated
// between, and cached at specific Workers' NUMA domains), (2) scalable
// data movement through direct loads/stores to remote shared memory
// rather than explicit device copies, and (3) functions that "can be
// synthesized in hardware and can be accelerated, on-demand, at runtime"
// — an enqueued kernel is dispatched by the runtime scheduler to a CPU
// or a reconfigurable block according to its policy.
//
// It also provides the distributed command queues of §4.4: an NDRange
// enqueue fans work out across the Workers of the machine along the
// buffers' data placement.
package ocl

import (
	"encoding/binary"
	"fmt"
	"math"

	"ecoscale/internal/accel"
	"ecoscale/internal/core"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
	"ecoscale/internal/sim"
)

// Platform wraps a built machine.
type Platform struct {
	M *core.Machine
}

// NewPlatform creates the platform for a machine.
func NewPlatform(m *core.Machine) *Platform { return &Platform{M: m} }

// CreateContext returns a context covering all Workers.
func (p *Platform) CreateContext() *Context { return &Context{p: p} }

// Context owns buffers and programs.
type Context struct {
	p *Platform
}

// Machine returns the underlying machine.
func (c *Context) Machine() *core.Machine { return c.p.M }

// Placement selects where a buffer's pages live.
type Placement int

// Buffer placements.
const (
	// OnWorker places all pages in one Worker's DRAM.
	OnWorker Placement = iota
	// Interleaved distributes pages round-robin across all Workers —
	// the NUMA-domain collection of §4.4.
	Interleaved
)

// Buffer is a float64 vector in the global address space.
type Buffer struct {
	ctx   *Context
	addr  uint64
	Elems int
}

// Addr returns the buffer's base global address.
func (b *Buffer) Addr() uint64 { return b.addr }

// Bytes returns the buffer size in bytes.
func (b *Buffer) Bytes() int { return b.Elems * 8 }

// Span returns the accel.Span covering the whole buffer.
func (b *Buffer) Span() accel.Span { return accel.Span{Addr: b.addr, Size: b.Bytes()} }

// CreateBuffer allocates a buffer of elems float64s with the given
// placement (worker is the target for OnWorker, ignored for
// Interleaved).
func (c *Context) CreateBuffer(elems int, place Placement, worker int) *Buffer {
	if elems <= 0 {
		panic("ocl: buffer needs a positive element count")
	}
	space := c.p.M.Space
	bytes := elems * 8
	pageB := space.PageBytes()
	switch place {
	case OnWorker:
		return &Buffer{ctx: c, addr: space.Alloc(worker, bytes), Elems: elems}
	case Interleaved:
		pages := (bytes + pageB - 1) / pageB
		workers := c.p.M.Workers()
		var base uint64
		for p := 0; p < pages; p++ {
			a := space.Alloc(p%workers, pageB)
			if p == 0 {
				base = a
			}
		}
		return &Buffer{ctx: c, addr: base, Elems: elems}
	default:
		panic(fmt.Sprintf("ocl: unknown placement %d", place))
	}
}

// Poke writes host data into the buffer with no simulated cost (test
// setup); Write is the timed path.
func (b *Buffer) Poke(host []float64) {
	if len(host) > b.Elems {
		panic("ocl: host slice larger than buffer")
	}
	space := b.ctx.p.M.Space
	for i, v := range host {
		space.PokeWord(b.addr+uint64(i*8), math.Float64bits(v))
	}
}

// Peek reads the buffer with no simulated cost.
func (b *Buffer) Peek() []float64 {
	space := b.ctx.p.M.Space
	raw := space.PeekRange(b.addr, b.Bytes())
	out := make([]float64, b.Elems)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

// Write streams host data into the buffer from the given Worker,
// returning an event that fires at completion.
func (b *Buffer) Write(fromWorker int, host []float64, deps []*Event) *Event {
	ev := newEvent(b.ctx.p.M.Eng)
	after(deps, func() {
		// The data plane is the Poke; the stream times the stores.
		b.Poke(host)
		b.ctx.p.M.Space.StreamWriteback(fromWorker, b.addr, len(host)*8, 8, func() { ev.complete(nil) })
	})
	return ev
}

// Read streams the buffer to the given Worker; the event's Data holds
// the values.
func (b *Buffer) Read(toWorker int, deps []*Event) *Event {
	ev := newEvent(b.ctx.p.M.Eng)
	after(deps, func() {
		b.ctx.p.M.Space.StreamFetch(toWorker, b.addr, b.Bytes(), 8, func() {
			ev.Data = b.Peek()
			ev.complete(nil)
		})
	})
	return ev
}

// Replicate copies the buffer's pages (read-only) into a Worker's DRAM
// — the implicit data replication of §4.4 for read-mostly operands. A
// later write through the space tears the replicas down.
func (b *Buffer) Replicate(atWorker int, deps []*Event) *Event {
	ev := newEvent(b.ctx.p.M.Eng)
	after(deps, func() {
		space := b.ctx.p.M.Space
		pageB := uint64(space.PageBytes())
		pages := (uint64(b.Bytes()) + pageB - 1) / pageB
		wg := sim.NewWaitGroup(b.ctx.p.M.Eng, int(pages))
		for p := uint64(0); p < pages; p++ {
			space.Replicate(b.addr+p*pageB, atWorker, wg.DoneOne)
		}
		wg.Wait(func() { ev.complete(nil) })
	})
	return ev
}

// Migrate moves the buffer's pages to a Worker's DRAM (the implicit
// data migration of §4.4), page by page.
func (b *Buffer) Migrate(toWorker int, deps []*Event) *Event {
	ev := newEvent(b.ctx.p.M.Eng)
	after(deps, func() {
		space := b.ctx.p.M.Space
		pageB := uint64(space.PageBytes())
		pages := (uint64(b.Bytes()) + pageB - 1) / pageB
		wg := sim.NewWaitGroup(b.ctx.p.M.Eng, int(pages))
		for p := uint64(0); p < pages; p++ {
			space.MigratePage(b.addr+p*pageB, toWorker, wg.DoneOne)
		}
		wg.Wait(func() { ev.complete(nil) })
	})
	return ev
}

// Event is an OpenCL-style completion handle.
type Event struct {
	sig  *sim.Signal
	Err  error
	Data []float64
}

func newEvent(eng *sim.Engine) *Event { return &Event{sig: sim.NewSignal(eng)} }

func (e *Event) complete(err error) {
	e.Err = err
	e.sig.Fire()
}

// Done reports whether the event has completed.
func (e *Event) Done() bool { return e.sig.Done() }

// OnComplete registers a callback.
func (e *Event) OnComplete(fn func(*Event)) {
	e.sig.Wait(func() { fn(e) })
}

// after runs fn once all deps complete (immediately when none).
func after(deps []*Event, fn func()) {
	if len(deps) == 0 {
		fn()
		return
	}
	remaining := len(deps)
	for _, d := range deps {
		d.sig.Wait(func() {
			remaining--
			if remaining == 0 {
				fn()
			}
		})
	}
}

// WaitAll blocks the simulation (by draining it) until the events are
// done; a convenience for hosts.
func (c *Context) WaitAll(events ...*Event) error {
	c.p.M.Eng.RunUntilIdle()
	for _, e := range events {
		if !e.Done() {
			return fmt.Errorf("ocl: event never completed (deadlock?)")
		}
		if e.Err != nil {
			return e.Err
		}
	}
	return nil
}

// Program is a set of compiled kernels.
type Program struct {
	ctx     *Context
	Kernels map[string]*hls.Kernel
	Impls   map[string]*hls.Impl
}

// CreateProgram parses kernel sources (one kernel per source string).
func (c *Context) CreateProgram(sources ...string) (*Program, error) {
	p := &Program{ctx: c, Kernels: map[string]*hls.Kernel{}, Impls: map[string]*hls.Impl{}}
	for _, src := range sources {
		k, err := hls.Parse(src)
		if err != nil {
			return nil, err
		}
		if _, dup := p.Kernels[k.Name]; dup {
			return nil, fmt.Errorf("ocl: duplicate kernel %q", k.Name)
		}
		p.Kernels[k.Name] = k
	}
	return p, nil
}

// Build synthesizes every kernel under the directives and registers the
// implementations with the runtime daemon's library.
func (p *Program) Build(dir hls.Directives) error {
	for name, k := range p.Kernels {
		im, err := hls.Synthesize(k, dir)
		if err != nil {
			return fmt.Errorf("ocl: building %s: %w", name, err)
		}
		p.Impls[name] = im
		p.ctx.p.M.Daemon.Register(im)
	}
	return nil
}

// DeployTo loads a built kernel onto a Worker's fabric now (callers may
// instead leave loading to the runtime daemon).
func (p *Program) DeployTo(kernel string, worker int) error {
	im, ok := p.Impls[kernel]
	if !ok {
		return fmt.Errorf("ocl: kernel %q not built", kernel)
	}
	var derr error
	done := false
	p.ctx.p.M.Domain.Deploy(worker, im, func(_ *accel.Instance, err error) {
		derr = err
		done = true
	})
	p.ctx.p.M.Eng.RunUntilIdle()
	if !done {
		return fmt.Errorf("ocl: deploy of %q never completed", kernel)
	}
	return derr
}

// Arg is a kernel argument: a buffer or a scalar.
type Arg struct {
	Buf    *Buffer
	Scalar float64
}

// BufArg wraps a buffer argument.
func BufArg(b *Buffer) Arg { return Arg{Buf: b} }

// ScalarArg wraps a scalar argument.
func ScalarArg(v float64) Arg { return Arg{Scalar: v} }

// Queue is a per-Worker command queue feeding that Worker's runtime
// scheduler.
type Queue struct {
	ctx    *Context
	Worker int
}

// CreateQueue returns worker w's command queue.
func (c *Context) CreateQueue(w int) *Queue {
	if w < 0 || w >= c.p.M.Workers() {
		panic(fmt.Sprintf("ocl: no worker %d", w))
	}
	return &Queue{ctx: c, Worker: w}
}

// EnqueueKernel submits one kernel invocation to the queue's Worker.
// The runtime policy decides CPU vs hardware. Buffers are passed in the
// kernel's parameter order; scalars bind by parameter name.
func (q *Queue) EnqueueKernel(prog *Program, kernel string, args []Arg, deps []*Event) *Event {
	m := q.ctx.p.M
	ev := newEvent(m.Eng)
	k, ok := prog.Kernels[kernel]
	if !ok {
		ev.complete(fmt.Errorf("ocl: unknown kernel %q", kernel))
		return ev
	}
	if len(args) != len(k.Params) {
		ev.complete(fmt.Errorf("ocl: kernel %s takes %d args, got %d", kernel, len(k.Params), len(args)))
		return ev
	}
	task, err := q.buildTask(k, args)
	if err != nil {
		ev.complete(err)
		return ev
	}
	after(deps, func() {
		m.Cluster.Submit(q.Worker, task, func(_ rts.Device, err error) { ev.complete(err) })
	})
	return ev
}

// buildTask assembles the runtime task for a kernel call: bindings,
// hardware spans, software stats (via a dry data-plane run at build
// time is avoided — stats are estimated from the cycle-model feature
// proxy), and the data-plane Exec closure.
func (q *Queue) buildTask(k *hls.Kernel, args []Arg) (*rts.Task, error) {
	bindings := map[string]float64{}
	var reads, writes []accel.Span
	var bufs []*Buffer
	for i, p := range k.Params {
		if p.IsBuffer {
			if args[i].Buf == nil {
				return nil, fmt.Errorf("ocl: parameter %s needs a buffer", p.Name)
			}
			bufs = append(bufs, args[i].Buf)
			// Without per-parameter direction metadata, buffers are
			// conservatively streamed both ways.
			reads = append(reads, args[i].Buf.Span())
			writes = append(writes, args[i].Buf.Span())
		} else {
			bindings[p.Name] = args[i].Scalar
			bufs = append(bufs, nil)
		}
	}
	exec := func() error {
		vals := make([]hls.Value, len(k.Params))
		for i, p := range k.Params {
			if p.IsBuffer {
				vals[i] = hls.B(bufs[i].Peek())
			} else {
				vals[i] = hls.S(bindings[p.Name])
			}
		}
		if _, err := hls.Run(k, vals); err != nil {
			return err
		}
		for i, p := range k.Params {
			if p.IsBuffer {
				bufs[i].Poke(vals[i].Buf)
			}
		}
		return nil
	}
	// Estimate the software op mix cheaply from a reference
	// interpretation — run once here (host-side compile cost, not
	// simulated time).
	stats, err := estimateStats(k, bufs, bindings)
	if err != nil {
		return nil, err
	}
	return &rts.Task{
		Kernel: k.Name, Bindings: bindings,
		Reads: reads, Writes: writes,
		SWStats: stats, Exec: exec,
	}, nil
}

// estimateStats interprets the kernel against scratch copies of the
// buffers to count its dynamic op mix.
func estimateStats(k *hls.Kernel, bufs []*Buffer, bindings map[string]float64) (hls.RunStats, error) {
	vals := make([]hls.Value, len(k.Params))
	for i, p := range k.Params {
		if p.IsBuffer {
			vals[i] = hls.B(bufs[i].Peek())
		} else {
			vals[i] = hls.S(bindings[p.Name])
		}
	}
	return hls.Run(k, vals)
}

// EnqueueNDRange splits an elementwise kernel across every Worker: the
// distributed command queues of §4.4. The kernel must follow the
// convention (global buffers ..., int N): each Worker receives a
// contiguous chunk as sub-buffer views. Buffers must all have at least
// n elements.
func (c *Context) EnqueueNDRange(prog *Program, kernel string, n int, args []Arg, deps []*Event) *Event {
	ev := newEvent(c.p.M.Eng)
	k, ok := prog.Kernels[kernel]
	if !ok {
		ev.complete(fmt.Errorf("ocl: unknown kernel %q", kernel))
		return ev
	}
	workers := c.p.M.Workers()
	events := make([]*Event, 0, workers)
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		if lo == hi {
			continue
		}
		sub := make([]Arg, len(args))
		for i, p := range k.Params {
			if p.IsBuffer {
				b := args[i].Buf
				if b == nil || b.Elems < n {
					ev.complete(fmt.Errorf("ocl: buffer arg %d too small for NDRange %d", i, n))
					return ev
				}
				sub[i] = BufArg(&Buffer{ctx: c, addr: b.addr + uint64(lo*8), Elems: hi - lo})
			} else if p.Name == "N" {
				sub[i] = ScalarArg(float64(hi - lo))
			} else {
				sub[i] = args[i]
			}
		}
		events = append(events, c.CreateQueue(w).EnqueueKernel(prog, kernel, sub, deps))
	}
	if len(events) == 0 {
		ev.complete(nil)
		return ev
	}
	after(events, func() {
		for _, e := range events {
			if e.Err != nil {
				ev.complete(e.Err)
				return
			}
		}
		ev.complete(nil)
	})
	return ev
}
