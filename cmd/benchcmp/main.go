// Command benchcmp compares two BENCH_sim.json reports (the committed
// baseline and a fresh run) and exits non-zero when the fresh run
// regresses past a tolerance band. It is the gate behind the CI
// bench-regression lane.
//
// Wall-clock numbers only mean something on the host that produced
// them, so absolute time-based fields (ns/event) are compared only when
// both reports come from an equivalent host — same CPU count and
// architecture. Allocation counts per event are deterministic properties
// of the code and are compared always.
//
// The kernel ratios in speedup_events_per_sec (production kernel over the
// frozen heapref reference, both measured in one run on one host) are
// compared always too: the host cancels out of a same-run ratio, so a
// drop means the production kernel got slower relative to a fixed
// baseline, wherever it was measured.
//
// -wall=false drops the absolute time comparisons even on an equivalent
// host: CI compares a -quick run against the full committed baseline, and
// short runs jitter far beyond any honest tolerance band.
//
// Usage:
//
//	benchcmp -old BENCH_sim.json -new /tmp/bench.json          # 15% band
//	benchcmp -old BENCH_sim.json -new /tmp/bench.json -tol 0.10
//	benchcmp -new /tmp/bench.json -wall=false                  # CI lane
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

type kernelEntry struct {
	Workload       string  `json:"workload"`
	Engine         string  `json:"engine"`
	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

type report struct {
	Schema    string             `json:"schema"`
	GoVersion string             `json:"go_version"`
	GOARCH    string             `json:"goarch"`
	CPUs      int                `json:"cpus"`
	Kernel    []kernelEntry      `json:"kernel"`
	Speedup   map[string]float64 `json:"speedup_events_per_sec"`
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	oldPath := flag.String("old", "BENCH_sim.json", "baseline report")
	newPath := flag.String("new", "", "fresh report to check")
	tol := flag.Float64("tol", 0.15, "relative regression tolerance")
	wall := flag.Bool("wall", true, "compare wall-clock fields (hosts must still match)")
	flag.Parse()
	if *newPath == "" {
		log.Fatal("benchcmp: -new is required")
	}

	oldRep, err := load(*oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}
	if oldRep.Schema != newRep.Schema {
		log.Fatalf("schema mismatch: %q vs %q", oldRep.Schema, newRep.Schema)
	}

	// Wall-clock fields are only comparable between equivalent hosts.
	wallOK := oldRep.CPUs == newRep.CPUs && oldRep.GOARCH == newRep.GOARCH
	if !wallOK {
		fmt.Printf("hosts differ (cpus %d/%s vs %d/%s): skipping wall-clock comparisons\n",
			oldRep.CPUs, oldRep.GOARCH, newRep.CPUs, newRep.GOARCH)
	}
	if !*wall {
		wallOK = false
		fmt.Println("wall-clock comparisons disabled (-wall=false)")
	}
	if oldRep.GoVersion != newRep.GoVersion {
		fmt.Printf("note: go versions differ (%s vs %s)\n", oldRep.GoVersion, newRep.GoVersion)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("FAIL: "+format+"\n", args...)
	}

	newKernel := map[string]kernelEntry{}
	for _, k := range newRep.Kernel {
		newKernel[k.Workload+"/"+k.Engine] = k
	}
	for _, o := range oldRep.Kernel {
		key := o.Workload + "/" + o.Engine
		n, ok := newKernel[key]
		if !ok {
			fail("kernel workload %s missing from new report", key)
			continue
		}
		// Allocation behavior is deterministic: compare with the relative
		// band plus a small absolute floor so zero-alloc workloads do not
		// trip on a stray measurement allocation.
		if n.AllocsPerEvent > o.AllocsPerEvent*(1+*tol)+0.05 {
			fail("%s: allocs/event %.3f -> %.3f", key, o.AllocsPerEvent, n.AllocsPerEvent)
		}
		if n.BytesPerEvent > o.BytesPerEvent*(1+*tol)+16 {
			fail("%s: bytes/event %.1f -> %.1f", key, o.BytesPerEvent, n.BytesPerEvent)
		}
		if wallOK && n.NsPerEvent > o.NsPerEvent*(1+*tol) {
			fail("%s: ns/event %.1f -> %.1f (>%.0f%% regression)",
				key, o.NsPerEvent, n.NsPerEvent, *tol*100)
		}
	}
	// Same-run kernel ratios are host-independent: gate them always.
	for w, ov := range oldRep.Speedup {
		nv, ok := newRep.Speedup[w]
		if !ok {
			fail("speedup[%s] missing from new report", w)
		} else if nv < ov*(1-*tol) {
			fail("speedup[%s]: %.2fx -> %.2fx", w, ov, nv)
		}
	}

	if failures > 0 {
		fmt.Printf("%d regression(s) beyond the %.0f%% band\n", failures, *tol*100)
		os.Exit(1)
	}
	fmt.Println("benchcmp: no regressions")
}
