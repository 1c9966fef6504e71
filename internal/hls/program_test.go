package hls_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ecoscale/internal/hls"
	"ecoscale/internal/sim"
	"ecoscale/internal/workload"
)

// cartsplitArgs builds cartsplit's arguments for size n, fresh each call.
func cartsplitArgs(n int) []hls.Value {
	args, _ := workload.CARTSplit.Make(n, sim.NewRNG(11))
	return args
}

// Run allocates per call, never per loop iteration: its allocations do
// not grow with the trip count. montecarlo calls builtins in its loop.
func TestRunAllocsFlat(t *testing.T) {
	for _, w := range []workload.Workload{workload.CARTSplit, workload.MonteCarlo} {
		k := w.Kernel()
		allocs := func(n int) float64 {
			args, _ := w.Make(n, sim.NewRNG(11))
			return testing.AllocsPerRun(5, func() {
				if _, err := hls.Run(k, args); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, big := allocs(64), allocs(65536); small != big {
			t.Errorf("%s: allocs per Run: %v at N=64, %v at N=65536", w.Name, small, big)
		}
	}
}

// One kernel run from many goroutines at once, its first Run included,
// gives each the same stats and buffers as a run on its own.
func TestRunConcurrentSameKernel(t *testing.T) {
	const n = 4096
	want := cartsplitArgs(n)
	wantSt, err := hls.Run(hls.MustParse(workload.CARTSplit.Source), want)
	if err != nil {
		t.Fatal(err)
	}
	k := hls.MustParse(workload.CARTSplit.Source)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := cartsplitArgs(n)
			st, err := hls.Run(k, args)
			if err != nil || st != wantSt || !reflect.DeepEqual(args, want) {
				t.Errorf("concurrent run: stats %+v err %v, want %+v; buffers equal %v",
					st, err, wantSt, reflect.DeepEqual(args, want))
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRun interprets cartsplit at the sizes E10's dispatch stream
// mixes, the software-model workload that dominates the tables, and
// reports the host time per interpreted op alongside ns per Run.
func BenchmarkRun(b *testing.B) {
	k := workload.CARTSplit.Kernel()
	var args [][]hls.Value
	for _, n := range []int{64, 96, 128, 32768, 49152, 65536} {
		args = append(args, cartsplitArgs(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops uint64
	for i := 0; i < b.N; i++ {
		st, err := hls.Run(k, args[i%len(args)])
		if err != nil {
			b.Fatal(err)
		}
		ops += st.Ops
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Nanosecond)/float64(ops), "ns/interp-op")
}
