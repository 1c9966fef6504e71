package fabric

import (
	"ecoscale/internal/energy"
	"ecoscale/internal/sim"
	"ecoscale/internal/trace"
)

// This file covers the configuration-data path: synthetic partial
// bitstreams, RLE compression ([11], "Hardware Decompression Techniques
// for FPGA-based Embedded Systems"), and the timed partial-reconfiguration
// load through the ICAP-class port.

// BitstreamFor synthesizes the partial bitstream for a placement:
// deterministic bytes derived from the module name, sized
// Area() * BytesPerRegion. Real configuration data is dominated by long
// zero runs (unused routing/config frames); density controls the fraction
// of frames carrying configuration, which determines how well RLE does.
func (f *Fabric) BitstreamFor(p *Placement, density float64) []byte {
	if density <= 0 {
		density = 0.25
	}
	if density > 1 {
		density = 1
	}
	size := p.Area() * f.cfg.BytesPerRegion
	out := make([]byte, size)
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
				out[i] = byte(rng.Uint64())
				if out[i] == 0 {
					out[i] = 1
				}
				i++
			}
		} else {
			i += runLen
		}
	}
	return out
}

// CompressRLE run-length encodes data as (count, value) byte pairs with
// runs up to 255. Worst case doubles the size; configuration data with
// long zero runs compresses well.
func CompressRLE(data []byte) []byte {
	out := make([]byte, 0, len(data)/2)
	i := 0
	for i < len(data) {
		v := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == v && run < 255 {
			run++
		}
		out = append(out, byte(run), v)
		i += run
	}
	return out
}

// DecompressRLE reverses CompressRLE. It panics on malformed input (odd
// length), which can only arise from corruption.
func DecompressRLE(data []byte) []byte {
	if len(data)%2 != 0 {
		panic("fabric: corrupt RLE stream")
	}
	var out []byte
	for i := 0; i < len(data); i += 2 {
		run := int(data[i])
		v := data[i+1]
		for j := 0; j < run; j++ {
			out = append(out, v)
		}
	}
	return out
}

// CompressionRatio returns original/compressed size for a placement's
// bitstream at the given density.
func (f *Fabric) CompressionRatio(p *Placement, density float64) float64 {
	bs := f.BitstreamFor(p, density)
	return float64(len(bs)) / float64(len(CompressRLE(bs)))
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
	bytes := f.wireBytes(p, opt)
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
	return sim.Time(float64(f.wireBytes(p, opt)) / f.cfg.PortBytesPerNs * float64(sim.Nanosecond))
}

// wireBytes is the size of what a load streams through the port. An
// uncompressed bitstream is always Area() * BytesPerRegion bytes, so
// only a compressed load needs the bytes themselves.
func (f *Fabric) wireBytes(p *Placement, opt LoadOptions) int {
	if opt.Compressed {
		return len(CompressRLE(f.BitstreamFor(p, opt.Density)))
	}
	return p.Area() * f.cfg.BytesPerRegion
}
