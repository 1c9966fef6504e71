package unimem

import (
	"ecoscale/internal/mem"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// Bulk and streaming helpers: accelerators and software kernels move data
// through the space in line-granular pipelined streams; these helpers
// split arbitrary spans across page boundaries and keep a bounded number
// of requests in flight.

// splitSpan cuts [addr, addr+size) into page-local chunks of at most
// chunk bytes.
func (s *Space) splitSpan(addr uint64, size, chunk int) []span {
	if chunk <= 0 {
		chunk = mem.LineBytes
	}
	var out []span
	for size > 0 {
		pageRem := s.cfg.PageBytes - int(addr%uint64(s.cfg.PageBytes))
		n := size
		if n > pageRem {
			n = pageRem
		}
		if n > chunk {
			n = chunk
		}
		out = append(out, span{addr: addr, size: n})
		addr += uint64(n)
		size -= n
	}
	return out
}

type span struct {
	addr uint64
	size int
}

// PeekRange reads size bytes starting at addr with no timing, splitting
// across page boundaries; for result verification and identity
// write-back streams.
func (s *Space) PeekRange(addr uint64, size int) []byte {
	out := make([]byte, 0, size)
	for _, sp := range s.splitSpan(addr, size, s.cfg.PageBytes) {
		out = append(out, s.Peek(sp.addr, sp.size)...)
	}
	return out
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
	if window <= 0 {
		window = 1
	}
	eng := s.Engine()
	start := eng.Now()
	spans := s.splitSpan(addr, size, mem.LineBytes)
	buf := make([]byte, size)
	wg := sim.NewWaitGroup(eng, len(spans))
	inFlight := sim.NewResource(eng, "stream-read", window)
	base := addr
	for _, sp := range spans {
		sp := sp
		inFlight.Acquire(func() {
			s.Read(node, sp.addr, sp.size, func(data []byte) {
				copy(buf[sp.addr-base:], data)
				inFlight.Release()
				wg.DoneOne()
			})
		})
	}
	wg.Wait(func() {
		s.observeStream(node, "stream-read", start, size)
		if done != nil {
			done(buf)
		}
	})
}

// observeStream records one completed stream as a DMA span and a
// latency-histogram sample.
func (s *Space) observeStream(node int, name string, start sim.Time, size int) {
	now := s.Engine().Now()
	s.Trace.Add(trace.Span{Name: name, Cat: trace.CatDMA,
		Start: int64(start), End: int64(now),
		PID: trace.WorkerPID(node), TID: trace.TIDDMA, Arg: int64(size)})
	if s.reg != nil {
		trace.LatencyHistogram(s.reg, "lat.dma_us").Observe((now - start).Micros())
		s.reg.Counter("unimem.stream_bytes").Add(uint64(size))
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
	if window <= 0 {
		window = 1
	}
	eng := s.Engine()
	start := eng.Now()
	spans := s.splitSpan(addr, len(data), mem.LineBytes)
	wg := sim.NewWaitGroup(eng, len(spans))
	inFlight := sim.NewResource(eng, "stream-write", window)
	base := addr
	for _, sp := range spans {
		sp := sp
		inFlight.Acquire(func() {
			s.Write(node, sp.addr, data[sp.addr-base:uint64(sp.size)+sp.addr-base], func() {
				inFlight.Release()
				wg.DoneOne()
			})
		})
	}
	wg.Wait(func() {
		s.observeStream(node, "stream-write", start, len(data))
		if done != nil {
			done()
		}
	})
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
	if window <= 0 {
		window = 1
	}
	eng := s.Engine()
	start := eng.Now()
	spans := s.splitSpan(addr, size, mem.LineBytes)
	wg := sim.NewWaitGroup(eng, len(spans))
	inFlight := sim.NewResource(eng, "stream-write", window)
	for _, sp := range spans {
		sp := sp
		inFlight.Acquire(func() {
			s.WriteBack(node, sp.addr, sp.size, func() {
				inFlight.Release()
				wg.DoneOne()
			})
		})
	}
	wg.Wait(func() {
		s.observeStream(node, "stream-write", start, size)
		if done != nil {
			done()
		}
	})
}
