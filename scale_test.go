package ecoscale_test

// Flyweight weak-scaling smoke (`make scale-smoke`): a 131k-Worker
// machine must construct in O(1) per Worker, fit a hard heap budget,
// and still execute a sparse task burst that touches a handful of
// Workers — materializing only those — with everything else staying a
// quiescent summary record.

import (
	"runtime"
	"testing"

	"ecoscale"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
)

func TestScaleSmoke100k(t *testing.T) {
	const (
		wpc, nodes = 256, 512 // 131072 workers
		workers    = wpc * nodes
		tasks      = 128
		// Budget for the whole constructed machine. An eager build at
		// this scale needs gigabytes (fabric grids, TLBs, page tables,
		// schedulers × 131k); the flyweight spine is a few MB of index
		// slots. Measured with go1.24 on linux/amd64, with and without
		// -race: 3.02 MiB, 24.2 B per Worker. 4 MiB fails if any 16 B
		// per Worker (2 MiB here) comes back.
		heapBudget = 4 << 20 // 4 MiB
	)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m := ecoscale.New(ecoscale.DefaultConfig(wpc, nodes))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	used := m1.HeapAlloc - m0.HeapAlloc
	if used > heapBudget {
		t.Fatalf("untouched %d-worker machine uses %.2f MiB of heap, budget %.2f MiB",
			workers, float64(used)/(1<<20), float64(heapBudget)/(1<<20))
	}
	if m.LiveWorkers() != 0 {
		t.Fatalf("construction materialized %d workers", m.LiveWorkers())
	}

	m.SetPolicy(ecoscale.PolicyCPU)
	done := 0
	stride := workers / tasks
	for i := 0; i < tasks; i++ {
		m.Sched(i*stride).Submit(&rts.Task{
			Kernel:   "smoke",
			Bindings: map[string]float64{},
			SWStats:  hls.RunStats{Ops: 4096, Loads: 1024, Stores: 1024},
		}, func(rts.Device, error) { done++ })
	}
	m.Run()
	if done != tasks {
		t.Fatalf("completed %d of %d tasks", done, tasks)
	}
	live := m.LiveWorkers()
	if live < tasks {
		t.Errorf("only %d workers live after %d spread tasks", live, tasks)
	}
	// Work stealing probes neighbours without materializing them, so
	// liveness stays within a small multiple of the touched set.
	if live > tasks*4 {
		t.Errorf("%d workers live for %d tasks; laziness leak?", live, tasks)
	}
	if quiescent := m.QuiescentNodes(); quiescent < nodes/2 {
		t.Errorf("only %d of %d compute nodes stayed quiescent", quiescent, nodes)
	}
	runtime.KeepAlive(m)
}
