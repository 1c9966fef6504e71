package hls_test

import (
	"hash/fnv"
	"math"
	"testing"

	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/workload"
)

// runGolden pins what the software cost model and the SW/HW equivalence
// checks read from Run: the dynamic op mix and the contents of every
// buffer argument afterwards, for each library kernel at two sizes.
var runGolden = map[string][2]runPin{
	"vecadd": {
		{16, hls.RunStats{Ops: 49, Flops: 16, Loads: 32, Stores: 16}, 0xbb8e5fb5191c2b36},
		{50, hls.RunStats{Ops: 151, Flops: 50, Loads: 100, Stores: 50}, 0x160041223631cd3f},
	},
	"dot": {
		{16, hls.RunStats{Ops: 65, Flops: 32, Loads: 32, Stores: 1}, 0x9d005c748fe7df8e},
		{50, hls.RunStats{Ops: 201, Flops: 100, Loads: 100, Stores: 1}, 0x2b057a9ab019872e},
	},
	"matmul": {
		{16, hls.RunStats{Ops: 34097, Flops: 8192, Loads: 8192, Stores: 256}, 0x509425a1ded13651},
		{50, hls.RunStats{Ops: 1012651, Flops: 250000, Loads: 250000, Stores: 2500}, 0xeb084229470450f9},
	},
	"stencil2d": {
		{16, hls.RunStats{Ops: 4188, Flops: 784, Loads: 784, Stores: 196}, 0xc2acd52c0196f05},
		{50, hls.RunStats{Ops: 48626, Flops: 9216, Loads: 9216, Stores: 2304}, 0xaead06a40dd27d26},
	},
	"montecarlo": {
		{16, hls.RunStats{Ops: 156, Flops: 122, Loads: 16, Stores: 1}, 0xcfd3863657d2d64c},
		{50, hls.RunStats{Ops: 462, Flops: 360, Loads: 50, Stores: 1}, 0x7cf2919ad3415af},
	},
	"cartsplit": {
		{16, hls.RunStats{Ops: 95, Flops: 26, Loads: 32, Stores: 3}, 0xd926bfac89b28fe3},
		{50, hls.RunStats{Ops: 265, Flops: 60, Loads: 100, Stores: 3}, 0x3aeee268441a3bc0},
	},
	"nbody": {
		{16, hls.RunStats{Ops: 3889, Flops: 3246, Loads: 1024, Stores: 32}, 0x259bc18f2d917497},
		{50, hls.RunStats{Ops: 37651, Flops: 32248, Loads: 10000, Stores: 100}, 0x41a02b0cb0fba0b0},
	},
	"reduce": {
		{16, hls.RunStats{Ops: 49, Flops: 16, Loads: 16, Stores: 1}, 0x72ecbc90d6580a27},
		{50, hls.RunStats{Ops: 151, Flops: 50, Loads: 50, Stores: 1}, 0x942a630cfad952f4},
	},
	"fir": {
		{16, hls.RunStats{Ops: 119, Flops: 32, Loads: 48, Stores: 17}, 0xbeda1c79b757c5b0},
		{50, hls.RunStats{Ops: 2891, Flops: 1088, Loads: 1104, Stores: 50}, 0x98936fb5f8fdf76c},
	},
	"spmv": {
		{16, hls.RunStats{Ops: 1073, Flops: 256, Loads: 384, Stores: 16}, 0xb6c35ec72eb54d4e},
		{50, hls.RunStats{Ops: 3351, Flops: 800, Loads: 1200, Stores: 50}, 0x25b439e9ae26cdcb},
	},
}

type runPin struct {
	n     int
	stats hls.RunStats
	sum   uint64 // bufSum of the arguments after the run
}

// bufSum hashes the exact bits of every buffer argument, in order.
func bufSum(args []hls.Value) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range args {
		for _, v := range a.Buf {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func TestRunStatsGolden(t *testing.T) {
	reg := workload.Registry()
	if len(reg) != len(runGolden) {
		t.Fatalf("registry has %d kernels, golden pins %d", len(reg), len(runGolden))
	}
	for _, w := range reg {
		pins, ok := runGolden[w.Name]
		if !ok {
			t.Errorf("%s: no golden pin", w.Name)
			continue
		}
		for _, pin := range pins {
			args, _ := w.Make(pin.n, sim.NewRNG(7))
			st, err := hls.Run(w.Kernel(), args)
			if err != nil {
				t.Errorf("%s(N=%d): %v", w.Name, pin.n, err)
				continue
			}
			if got := bufSum(args); st != pin.stats || got != pin.sum {
				t.Errorf("%s(N=%d): got %+v sum %#x, want %+v sum %#x",
					w.Name, pin.n, st, got, pin.stats, pin.sum)
			}
		}
	}
}
