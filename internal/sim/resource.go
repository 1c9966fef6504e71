package sim

// This file provides process-level modelling primitives built on the event
// kernel: counting resources with FIFO wait queues, single-owner mutex-like
// servers, and simple completion signals. They are the vocabulary in which
// ports, reconfiguration controllers, DMA engines and schedulers are
// described by higher layers.

// maxHandoffDepth bounds the synchronous Release→grant→Release recursion.
// A released token is handed to the oldest waiter inline (same event, zero
// extra latency), but a long chain of dependent releases would otherwise
// deepen the Go stack by one frame set per hand-off; past this depth the
// grant is re-scheduled as a zero-delay event at the current time, which
// unwinds the stack without perturbing simulated time.
const maxHandoffDepth = 64

// waiter is one parked callback, fn(arg): an Acquire waiting for a token
// or a Wait on a Signal.
type waiter struct {
	fn    func(any)
	arg   any
	start Time
}

// Occupancy is the token bookkeeping of a counting resource: capacity
// tokens, how many are held, and the load stats every such resource
// reports. Resource embeds it, and so does each NoC link, which queues
// its waiters itself.
type Occupancy struct {
	capacity, inUse int

	// Time-weighted occupancy: busyInt accumulates inUse·Δt (in
	// token-picoseconds) up to lastBusyAt. Folding happens only when
	// inUse changes, so the steady-state cost is two integer ops per
	// transition and the integral is exact.
	busyInt, lastBusyAt Time

	acquired  uint64
	totalWait Time
	maxQueue  int
}

// NewOccupancy returns the bookkeeping of capacity idle tokens.
func NewOccupancy(capacity int) Occupancy { return Occupancy{capacity: capacity} }

// Capacity returns the total token count.
func (o *Occupancy) Capacity() int { return o.capacity }

// InUse returns the number of tokens currently held.
func (o *Occupancy) InUse() int { return o.inUse }

// Free reports whether a token is idle.
func (o *Occupancy) Free() bool { return o.inUse < o.capacity }

// tickBusy folds the interval since the last occupancy change into the
// busy-time integral. Must be called before every inUse change.
func (o *Occupancy) tickBusy(now Time) {
	if now > o.lastBusyAt {
		o.busyInt += Time(o.inUse) * (now - o.lastBusyAt)
		o.lastBusyAt = now
	}
}

// Take records an idle token granted at now.
func (o *Occupancy) Take(now Time) {
	o.tickBusy(now)
	o.inUse++
	o.acquired++
}

// Return records a token given back at now with nobody waiting for it.
func (o *Occupancy) Return(now Time) {
	o.tickBusy(now)
	o.inUse--
}

// Pass records a held token handed straight to a waiter that has waited
// since since; the held count is unchanged.
func (o *Occupancy) Pass(since, now Time) {
	o.totalWait += now - since
	o.acquired++
}

// Queued records a waiter queue n deep.
func (o *Occupancy) Queued(n int) {
	if n > o.maxQueue {
		o.maxQueue = n
	}
}

// BusyTime returns the token-picoseconds of held-token time accumulated
// up to now (now must not precede the engine clock's past transitions).
func (o *Occupancy) BusyTime(now Time) Time {
	b := o.busyInt
	if now > o.lastBusyAt {
		b += Time(o.inUse) * (now - o.lastBusyAt)
	}
	return b
}

// Utilization returns the fraction of [0, now] the tokens were held, in
// [0, 1]; 0 when now is not positive.
func (o *Occupancy) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(o.BusyTime(now)) / (float64(now) * float64(o.capacity))
}

// Acquisitions returns how many tokens have been granted in total.
func (o *Occupancy) Acquisitions() uint64 { return o.acquired }

// TotalWait returns the summed queue-wait time across all acquisitions.
func (o *Occupancy) TotalWait() Time { return o.totalWait }

// MaxQueue returns the maximum observed waiter-queue depth.
func (o *Occupancy) MaxQueue() int { return o.maxQueue }

// Resource is a counting resource (e.g. a memory port, a DMA channel, an
// accelerator's request slot) with capacity tokens and a FIFO of waiters.
type Resource struct {
	Occupancy
	eng  *Engine
	name string

	// The waiter queue is a ring buffer: wq[whead] is the oldest waiter
	// and wlen the occupied count. A ring (with popped cells cleared)
	// keeps the backing array bounded by the peak queue depth; the old
	// `waiters = waiters[1:]` slice walk grew the backing array without
	// bound under steady churn because append kept extending the tail.
	wq    []waiter
	whead int
	wlen  int

	handoff int // current synchronous hand-off recursion depth
}

// NewResource creates a resource with the given token capacity.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{Occupancy: NewOccupancy(capacity), eng: eng, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// QueueLen returns the number of callers waiting for a token.
func (r *Resource) QueueLen() int { return r.wlen }

// waitersCap exposes the ring's backing capacity for the boundedness test.
func (r *Resource) waitersCap() int { return len(r.wq) }

func (r *Resource) pushWaiter(w waiter) {
	if r.wlen == len(r.wq) {
		n := len(r.wq) * 2
		if n == 0 {
			n = 8
		}
		nw := make([]waiter, n)
		for i := 0; i < r.wlen; i++ {
			nw[i] = r.wq[(r.whead+i)%len(r.wq)]
		}
		r.wq = nw
		r.whead = 0
	}
	r.wq[(r.whead+r.wlen)%len(r.wq)] = w
	r.wlen++
	r.Queued(r.wlen)
}

func (r *Resource) popWaiter() waiter {
	w := r.wq[r.whead]
	r.wq[r.whead] = waiter{} // drop references so granted callbacks can be collected
	r.whead = (r.whead + 1) % len(r.wq)
	r.wlen--
	return w
}

// Acquire requests one token and calls then once the token is granted;
// see AcquireCall.
func (r *Resource) Acquire(then func()) { r.AcquireCall(RunFunc, then) }

// AcquireCall requests one token and calls fn(arg) once it is granted
// (possibly immediately, in the same event). With a statically allocated
// fn and pointer-typed arg, queueing performs no heap allocation.
func (r *Resource) AcquireCall(fn func(any), arg any) {
	if r.Free() {
		r.Take(r.eng.now)
		fn(arg)
		return
	}
	r.pushWaiter(waiter{fn: fn, arg: arg, start: r.eng.Now()})
}

// Release returns one token, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if r.wlen > 0 {
		w := r.popWaiter()
		// The token transfers directly; inUse is unchanged.
		r.Pass(w.start, r.eng.now)
		if r.handoff >= maxHandoffDepth {
			// Unwind a deep dependency chain through the event queue.
			r.eng.AtCall(r.eng.now, w.fn, w.arg)
			return
		}
		r.handoff++
		w.fn(w.arg)
		r.handoff--
		return
	}
	r.Return(r.eng.now)
}

// useOp is a pooled acquire→hold→release→notify operation backing
// UseCall; fn(arg) is the notification. Ops are recycled through a
// per-engine free list so the steady state allocates nothing.
type useOp struct {
	r    *Resource
	hold Time
	fn   func(any)
	arg  any
	next *useOp
}

func (e *Engine) getUseOp() *useOp {
	if op := e.useFree; op != nil {
		e.useFree = op.next
		op.next = nil
		return op
	}
	return &useOp{}
}

func (e *Engine) putUseOp(op *useOp) {
	*op = useOp{next: e.useFree}
	e.useFree = op
}

func useGranted(a any) {
	op := a.(*useOp)
	op.r.eng.AfterCall(op.hold, useExpired, op)
}

func useExpired(a any) {
	op := a.(*useOp)
	r, fn, arg := op.r, op.fn, op.arg
	r.eng.putUseOp(op) // recycle first: Release/fn may re-enter Use
	r.Release()
	if fn != nil {
		fn(arg)
	}
}

// Use acquires a token, holds it for hold simulated time, releases it, and
// then calls done, which may be nil. It is the common "serve one request"
// pattern; see UseCall.
func (r *Resource) Use(hold Time, done func()) { r.UseCall(hold, RunFunc, done) }

// UseCall is Use with a static-function completion, fn(arg), where fn
// may be nil; see AcquireCall.
func (r *Resource) UseCall(hold Time, fn func(any), arg any) {
	op := r.eng.getUseOp()
	op.r, op.hold, op.fn, op.arg = r, hold, fn, arg
	r.AcquireCall(useGranted, op)
}

// Signal is a one-shot completion event that callbacks can wait on. Waits
// registered after the signal fires run immediately.
type Signal struct {
	eng   *Engine
	done  bool
	at    Time
	waits []waiter
}

// NewSignal creates an unfired signal.
func NewSignal(eng *Engine) *Signal { return &Signal{eng: eng} }

// Done reports whether the signal has fired.
func (s *Signal) Done() bool { return s.done }

// FiredAt returns the time the signal fired (valid only if Done).
func (s *Signal) FiredAt() Time { return s.at }

// Wait registers fn to run when the signal fires; see WaitCall.
func (s *Signal) Wait(fn func()) { s.WaitCall(RunFunc, fn) }

// WaitCall registers fn(arg) to run when the signal fires, without boxing
// a closure at the call site.
func (s *Signal) WaitCall(fn func(any), arg any) {
	if s.done {
		fn(arg)
		return
	}
	s.waits = append(s.waits, waiter{fn: fn, arg: arg})
}

// Fire marks the signal done and runs the waiters in registration order.
// Firing twice panics: a one-shot signal firing twice is always a protocol
// bug in the caller.
func (s *Signal) Fire() {
	if s.done {
		panic("sim: signal fired twice")
	}
	s.done = true
	s.at = s.eng.Now()
	waits := s.waits
	s.waits = nil
	for _, w := range waits {
		w.fn(w.arg)
	}
}

// WaitGroup counts down outstanding sub-operations and fires when all are
// done, like sync.WaitGroup but in simulated time.
type WaitGroup struct {
	sig *Signal
	n   int
}

// NewWaitGroup creates a group expecting n completions (n may be 0, in
// which case the group fires on the first Wait).
func NewWaitGroup(eng *Engine, n int) *WaitGroup {
	wg := &WaitGroup{sig: NewSignal(eng), n: n}
	return wg
}

// Add increases the expected completion count.
func (w *WaitGroup) Add(n int) {
	if w.sig.Done() {
		panic("sim: WaitGroup reused after firing")
	}
	w.n += n
}

// DoneOne records one completion.
func (w *WaitGroup) DoneOne() {
	w.n--
	if w.n < 0 {
		panic("sim: WaitGroup over-completed")
	}
	if w.n == 0 {
		w.sig.Fire()
	}
}

// Wait registers fn to run when the count reaches zero; see WaitCall.
func (w *WaitGroup) Wait(fn func()) { w.WaitCall(RunFunc, fn) }

// WaitCall registers fn(arg) to run when the count reaches zero, without
// boxing a closure at the call site.
func (w *WaitGroup) WaitCall(fn func(any), arg any) {
	if w.n == 0 && !w.sig.Done() {
		w.sig.Fire()
	}
	w.sig.WaitCall(fn, arg)
}
