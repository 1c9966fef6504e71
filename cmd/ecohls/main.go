// Command ecohls is the ECOSCALE HLS tool front end (§4.3): it compiles
// a kernel written in the OpenCL-style kernel language, reports the
// synthesized implementation (initiation interval, pipeline depth, area)
// under explicit directives, and optionally runs the automatic
// design-space exploration under an area budget.
//
// Usage:
//
//	ecohls -kernel matmul -n 64            # built-in kernel, default directives
//	ecohls -file k.cl -unroll 8 -ports 4   # kernel from a file
//	ecohls -kernel stencil2d -dse          # Pareto frontier
//	ecohls -kernel vecadd -dse -budget 1   # DSE within N fabric regions
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"ecoscale/internal/fabric"
	"ecoscale/internal/hls"
	"ecoscale/internal/trace"
	"ecoscale/internal/workload"
)

func main() {
	file := flag.String("file", "", "kernel source file")
	name := flag.String("kernel", "", "built-in kernel name (see -list)")
	list := flag.Bool("list", false, "list built-in kernels")
	n := flag.Float64("n", 256, "reference problem size binding for N")
	unroll := flag.Int("unroll", 1, "loop unroll factor")
	ports := flag.Int("ports", 1, "memory ports")
	share := flag.Int("share", 1, "functional-unit sharing factor")
	pipeline := flag.Bool("pipeline", true, "pipeline innermost loops")
	dse := flag.Bool("dse", false, "run design-space exploration")
	emit := flag.Bool("emit", false, "print the canonical (desugared) kernel source and exit")
	budget := flag.Int("budget", 0, "DSE area budget in fabric regions (0 = unbounded)")
	flag.Parse()
	if err := checkSize(*n); err != nil {
		log.Fatal(err)
	}
	if err := checkDirectives(*unroll, *ports, *share, *budget); err != nil {
		log.Fatal(err)
	}

	if *list {
		for _, w := range workload.Registry() {
			fmt.Println(w.Name)
		}
		return
	}

	var src string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		src = string(b)
	case *name != "":
		w, err := workload.ByName(*name)
		if err != nil {
			log.Fatal(err)
		}
		src = w.Source
	default:
		log.Fatal("ecohls: need -file or -kernel (or -list)")
	}

	k, err := hls.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if *emit {
		fmt.Print(hls.Print(k))
		return
	}
	bind := map[string]float64{"N": *n}

	if *dse {
		var area fabric.Resources
		if *budget > 0 {
			area = fabric.DefaultConfig().PerRegion.Scale(*budget)
		}
		front, err := hls.Explore(k, area, bind)
		if err != nil {
			log.Fatal(err)
		}
		tbl := trace.NewTable(fmt.Sprintf("DSE Pareto frontier for %s at N=%g", k.Name, *n),
			"directives", "II", "depth", "area", "area (LUT-eq)", "cycles")
		for _, pt := range front {
			tbl.AddRow(pt.Impl.Dir.String(), pt.Impl.II(), pt.Impl.Depth(),
				pt.Impl.Area.String(), pt.Area, pt.Cycles)
		}
		fmt.Println(tbl)
		return
	}

	im, err := hls.Synthesize(k, hls.Directives{
		Unroll: *unroll, MemPorts: *ports, Share: *share, Pipeline: *pipeline,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(im.Report(bind))
	if t, err := im.Time(bind); err == nil {
		fmt.Printf("estimated hardware time at %g MHz: %v\n", im.ClockMHz, t)
	}
	mod := im.Module()
	regions := mod.Req.RegionsNeeded(fabric.DefaultConfig().PerRegion)
	fmt.Printf("fabric footprint: %d region(s) on the default 8x8 fabric\n", regions)
}

// checkSize rejects a reference problem size no kernel can be estimated
// at.
func checkSize(n float64) error {
	if !(n > 0) || math.IsInf(n, 0) {
		return fmt.Errorf("ecohls: -n %g: the problem size must be positive and finite", n)
	}
	return nil
}

// checkDirectives rejects directive flags below 1 and a negative DSE
// budget, which synthesis would otherwise quietly raise to 1 or treat
// as unbounded.
func checkDirectives(unroll, ports, share, budget int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"unroll", unroll}, {"ports", ports}, {"share", share}} {
		if f.v < 1 {
			return fmt.Errorf("ecohls: -%s %d: the directive must be at least 1", f.name, f.v)
		}
	}
	if budget < 0 {
		return fmt.Errorf("ecohls: -budget %d: the area budget cannot be negative (0 = unbounded)", budget)
	}
	return nil
}
