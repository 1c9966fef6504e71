// Package ocl is the ECOSCALE programming environment of §4.2/§4.4: an
// OpenCL-flavoured host API extended with the paper's three runtime
// extensions — (1) PGAS data scoping (buffers are placed in, and cached
// at, specific Workers' NUMA domains), (2) scalable data movement
// through direct loads/stores to remote shared memory rather than
// explicit device copies, and (3) functions that "can be
// synthesized in hardware and can be accelerated, on-demand, at runtime"
// — an enqueued kernel is dispatched by the runtime scheduler to a CPU
// or a reconfigurable block according to its policy.
//
// Each command queue is bound to one Worker; §4.4's distributed NDRange
// queues, which would split one kernel across Workers, are not modelled.
package ocl

import (
	"fmt"

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

// Poke writes host data into the buffer with no simulated cost.
func (b *Buffer) Poke(host []float64) {
	if len(host) > b.Elems {
		panic("ocl: host slice larger than buffer")
	}
	b.ctx.p.M.Space.PokeFloat64s(b.addr, host)
}

// Peek reads the buffer with no simulated cost.
func (b *Buffer) Peek() []float64 {
	out := make([]float64, b.Elems)
	b.ctx.p.M.Space.PeekFloat64s(b.addr, out)
	return out
}

// Event is an OpenCL-style completion handle.
type Event struct {
	sig *sim.Signal
	Err error
}

func newEvent(eng *sim.Engine) *Event { return &Event{sig: sim.NewSignal(eng)} }

func (e *Event) complete(err error) {
	e.Err = err
	e.sig.Fire()
}

// Done reports whether the event has completed.
func (e *Event) Done() bool { return e.sig.Done() }

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

// Build synthesizes every kernel under the directives; DeployTo then
// loads one onto a Worker's fabric.
func (p *Program) Build(dir hls.Directives) error {
	for name, k := range p.Kernels {
		im, err := hls.Synthesize(k, dir)
		if err != nil {
			return fmt.Errorf("ocl: building %s: %w", name, err)
		}
		p.Impls[name] = im
	}
	return nil
}

// DeployTo loads a built kernel onto a Worker's fabric now.
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
