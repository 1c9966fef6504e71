package fabric

import (
	"ecoscale/internal/energy"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// This file covers the configuration-data path: synthetic partial
// bitstreams, their RLE-compressed size ([11], "Hardware Decompression
// Techniques for FPGA-based Embedded Systems"), and the timed
// partial-reconfiguration load through the ICAP-class port.

// walkBitstream synthesizes the partial bitstream for a placement as
// runs, calling emit(v, n) for n consecutive bytes of value v: a zero
// frame comes as one run, a configured frame one byte at a time. The
// bytes are deterministic, derived from the module name, and number
// Area() * BytesPerRegion. Real configuration data is dominated by long
// zero runs (unused routing/config frames); density controls the
// fraction of frames carrying configuration, which determines how well
// RLE does.
func (f *Fabric) walkBitstream(p *Placement, density float64, emit func(v byte, n int)) {
	if density <= 0 {
		density = 0.25
	}
	if density > 1 {
		density = 1
	}
	size := p.Area() * f.cfg.BytesPerRegion
	seed := int64(0)
	for _, ch := range p.Module.Name {
		seed = seed*131 + int64(ch)
	}
	rng := sim.NewRNG(seed)
	// Emit alternating zero runs and configured runs so the density and
	// run structure match frame-organized bitstreams.
	i := 0
	for i < size {
		runLen := 32 + rng.Intn(224)
		if rng.Float64() < density {
			for j := 0; j < runLen && i < size; j++ {
				v := byte(rng.Uint64())
				if v == 0 {
					v = 1
				}
				emit(v, 1)
				i++
			}
		} else {
			emit(0, min(runLen, size-i))
			i += runLen
		}
	}
}

// rleSize counts the length of the RLE encoding of a byte sequence fed
// to it as runs, without building either. The encoding is (count, value)
// byte pairs with runs up to 255: the worst case doubles the size, and
// configuration data with long zero runs compresses well.
type rleSize struct {
	v     byte
	run   int // length of the current run of v
	pairs int // (count, value) pairs of the finished runs
}

func (c *rleSize) add(v byte, n int) {
	if c.run > 0 && v == c.v {
		c.run += n
		return
	}
	c.end()
	c.v, c.run = v, n
}

// end closes the current run, which the encoding splits into pairs of
// at most 255 bytes.
func (c *rleSize) end() {
	c.pairs += (c.run + 254) / 255
	c.run = 0
}

// bytes returns the compressed length of everything added.
func (c *rleSize) bytes() int {
	c.end()
	return 2 * c.pairs
}

// LoadOptions controls a partial reconfiguration.
type LoadOptions struct {
	// Compressed streams the RLE-compressed bitstream through the port
	// (the fabric-side decompressor runs at line rate, per [11]).
	Compressed bool
	// Density is the configuration-frame density for bitstream synthesis.
	Density float64
}

// Load performs the timed partial reconfiguration of a placed module:
// the (possibly compressed) bitstream streams through the single
// configuration port, charging reconfiguration energy per byte moved.
// done fires when the region is active. Loads serialize on the port —
// the middleware contention that E6/E9 observe under churn.
func (f *Fabric) Load(p *Placement, opt LoadOptions, done func()) {
	bytes := f.WireBytes(p, opt)
	dur := sim.Time(float64(bytes) / f.cfg.PortBytesPerNs * float64(sim.Nanosecond))
	start := f.eng.Now()
	f.ensurePort().Use(dur, func() {
		f.loads++
		if f.meter != nil {
			f.meter.Charge("reconfig", energy.Joules(bytes)*f.meter.Model.ReconfigPerByte)
		}
		// The span covers port queueing plus the transfer itself — the
		// reconfiguration latency a task actually waits for.
		f.Trace.Add(trace.Span{Name: p.Module.Name, Cat: trace.CatReconfig,
			Start: int64(start), End: int64(f.eng.Now()),
			PID: f.TracePID, TID: trace.TIDFabric, Arg: int64(bytes)})
		if f.Reg != nil {
			trace.LatencyHistogram(f.Reg, "lat.reconfig_us").
				Observe((f.eng.Now() - start).Micros())
			f.Reg.Counter("fabric.loads").Inc()
			f.Reg.Counter("fabric.loaded_bytes").Add(uint64(bytes))
		}
		if done != nil {
			done()
		}
	})
}

// LoadLatency returns the uncontended reconfiguration time for a
// placement under the given options.
func (f *Fabric) LoadLatency(p *Placement, opt LoadOptions) sim.Time {
	return sim.Time(float64(f.WireBytes(p, opt)) / f.cfg.PortBytesPerNs * float64(sim.Nanosecond))
}

// WireBytes is the size of what a load streams through the port: the
// Area() * BytesPerRegion bitstream, or its RLE encoding, counted as the
// bitstream is generated without materializing either.
func (f *Fabric) WireBytes(p *Placement, opt LoadOptions) int {
	if opt.Compressed {
		var c rleSize
		f.walkBitstream(p, opt.Density, c.add)
		return c.bytes()
	}
	return p.Area() * f.cfg.BytesPerRegion
}
