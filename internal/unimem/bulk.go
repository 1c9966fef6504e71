package unimem

import (
	"encoding/binary"
	"fmt"
	"math"

	"ecoscale/internal/mem"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// Bulk and streaming helpers: accelerators and software kernels move data
// through the space in line-granular pipelined streams. One pooled
// streamOp walks the span with a cursor, cutting it into line-sized
// accesses that never cross a page boundary and keeping at most window of
// them in flight.

// PeekRange reads size bytes starting at addr with no timing, across page
// boundaries; for result verification.
func (s *Space) PeekRange(addr uint64, size int) []byte {
	out := make([]byte, 0, size)
	for size > 0 {
		n := min(size, s.pageRemaining(addr))
		out = append(out, s.Peek(addr, n)...)
		addr += uint64(n)
		size -= n
	}
	return out
}

// PokeFloat64s writes v from addr on as little-endian float64 words
// with no timing, a page at a time; addr must be 8-byte aligned.
func (s *Space) PokeFloat64s(addr uint64, v []float64) {
	for len(v) > 0 {
		data := s.wordsAt(addr)
		n := min(len(v), len(data)/8)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(x))
		}
		addr += uint64(8 * n)
		v = v[n:]
	}
}

// PeekFloat64s fills dst with the little-endian float64 words from addr
// on with no timing, a page at a time; addr must be 8-byte aligned.
func (s *Space) PeekFloat64s(addr uint64, dst []float64) {
	for len(dst) > 0 {
		data := s.wordsAt(addr)
		n := min(len(dst), len(data)/8)
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		addr += uint64(8 * n)
		dst = dst[n:]
	}
}

// wordsAt returns the backing bytes from the 8-byte aligned addr to the
// end of its page; the page size is a whole number of lines, so no word
// straddles a page.
func (s *Space) wordsAt(addr uint64) []byte {
	if addr%8 != 0 {
		panic(fmt.Sprintf("unimem: float64 access at unaligned address %#x", addr))
	}
	return s.pageOf(addr).data[addr%uint64(s.cfg.PageBytes):]
}

// pageRemaining returns the bytes from addr to the end of its page.
func (s *Space) pageRemaining(addr uint64) int {
	return s.cfg.PageBytes - int(addr%uint64(s.cfg.PageBytes))
}

// streamOp is one pooled stream. Lines issue in address order: window of
// them at the start, then one from each completion, which is the order a
// window-token resource handing its token to the next queued line gives.
// No line completes inside its own issue (every §4.1 path ends in an
// event), so the issue chain never recurses and needs no unwinding.
type streamOp struct {
	s        *Space
	node     int
	base     uint64 // first byte of the span
	addr     uint64 // next line to issue
	left     int    // bytes not yet issued
	inFlight int    // lines issued and not yet completed
	write    bool
	src      []byte // StreamWrite: stored line by line as each issues
	buf      []byte // StreamRead: filled line by line as each is delivered
	name     string
	start    sim.Time
	done     func()
	data     func([]byte)
	next     *streamOp
}

func (s *Space) newStream(node int, addr uint64, size int, write bool) *streamOp {
	op := s.streamFree
	if op != nil {
		s.streamFree = op.next
	} else {
		op = &streamOp{}
	}
	name := "stream-read"
	if write {
		name = "stream-write"
	}
	*op = streamOp{s: s, node: node, base: addr, addr: addr, left: size, write: write,
		name: name, start: s.Engine().Now()}
	return op
}

// run issues the stream's first window of lines.
func (op *streamOp) run(window int) {
	if window <= 0 {
		window = 1
	}
	for op.inFlight < window && op.left > 0 {
		op.issueLine()
	}
}

// issueLine issues the line at the cursor: at most one cache line, never
// past the end of its page.
func (op *streamOp) issueLine() {
	s := op.s
	n := min(op.left, mem.LineBytes, s.pageRemaining(op.addr))
	l := s.newLine(op.node, op.addr, n)
	l.stream = op
	at := op.addr - op.base
	if op.buf != nil {
		l.dst = op.buf[at : at+uint64(n)]
	}
	if op.src != nil {
		copy(l.p.data[l.off:], op.src[at:at+uint64(n)]) // data plane: applied at issue
	}
	addr := op.addr
	op.addr += uint64(n)
	op.left -= n
	op.inFlight++
	s.issue(l, addr, op.write)
}

// lineDone issues the next line into the freed window slot, then
// completes the stream when no line is left in flight.
func (op *streamOp) lineDone() {
	op.inFlight--
	if op.left > 0 {
		op.issueLine()
	}
	if op.inFlight > 0 {
		return
	}
	s := op.s
	s.observeStream(op.node, op.name, op.start, int(op.addr-op.base))
	done, data, buf := op.done, op.data, op.buf
	*op = streamOp{next: s.streamFree} // recycle first: done may start a stream
	s.streamFree = op
	if data != nil {
		data(buf)
	} else if done != nil {
		done()
	}
}

// StreamRead reads size bytes starting at addr on behalf of worker node,
// as a pipeline of line-sized requests with up to window in flight. done
// receives the assembled data.
func (s *Space) StreamRead(node int, addr uint64, size, window int, done func(data []byte)) {
	if size <= 0 {
		if done != nil {
			done(nil)
		}
		return
	}
	op := s.newStream(node, addr, size, false)
	if done != nil {
		op.buf, op.data = make([]byte, size), done
	}
	op.run(window)
}

// StreamFetch is StreamRead for a caller that does not use the bytes: the
// same pipelined load traffic, timing and counters, with no destination
// buffer. done runs when the last line has arrived.
func (s *Space) StreamFetch(node int, addr uint64, size, window int, done func()) {
	if size <= 0 {
		if done != nil {
			done()
		}
		return
	}
	op := s.newStream(node, addr, size, false)
	op.done = done
	op.run(window)
}

// observeStream records one completed stream as a DMA span and a
// latency-histogram sample.
func (s *Space) observeStream(node int, name string, start sim.Time, size int) {
	now := s.Engine().Now()
	s.Trace.Add(trace.Span{Name: name, Cat: trace.CatDMA,
		Start: int64(start), End: int64(now),
		PID: trace.WorkerPID(node), TID: trace.TIDDMA, Arg: int64(size)})
	if s.reg != nil {
		s.latency(&s.latDMA, "lat.dma_us").Observe((now - start).Micros())
		s.counter(ctrStreamBytes).Add(uint64(size))
	}
}

// StreamWrite writes data starting at addr on behalf of worker node as a
// pipelined stream of line-sized stores with up to window in flight.
func (s *Space) StreamWrite(node int, addr uint64, data []byte, window int, done func()) {
	if len(data) == 0 {
		if done != nil {
			done()
		}
		return
	}
	op := s.newStream(node, addr, len(data), true)
	op.src, op.done = data, done
	op.run(window)
}

// StreamWriteback is StreamWrite for an identity write-back: the same
// pipelined store traffic, but the bytes are never read or copied (see
// Space.WriteBack).
func (s *Space) StreamWriteback(node int, addr uint64, size, window int, done func()) {
	if size <= 0 {
		if done != nil {
			done()
		}
		return
	}
	op := s.newStream(node, addr, size, true)
	op.done = done
	op.run(window)
}
