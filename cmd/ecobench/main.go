// Command ecobench regenerates every experiment table of the ECOSCALE
// reproduction (E1–E16, ablations A1–A5 and resilience scenarios R1–R4;
// see DESIGN.md for the index and EXPERIMENTS.md for paper-claim vs
// measured). Each experiment's points fan out over a worker pool; output
// is byte-identical at every -parallel setting, and the full default
// output is pinned by docs/ecobench_output.txt (see golden_test.go).
//
// Usage:
//
//	ecobench                  # run everything (pool = GOMAXPROCS)
//	ecobench -run E3          # one experiment
//	ecobench -run E3,E4       # several, comma-separated
//	ecobench -run A           # every id with the prefix (A1–A5)
//	ecobench -parallel 1      # sequential reference run
//	ecobench -timeout 30s     # per-point timeout
//	ecobench -progress        # per-point progress + summary on stderr
//	ecobench -cpuprofile f    # write a CPU profile of the run to f
//	ecobench -memprofile f    # write a heap profile (after the run) to f
//	ecobench -metrics         # dump the runner's metrics registry (point
//	                          # counters, wall-clock histogram) in Prometheus
//	                          # text format on stderr after the run
//	ecobench -csv             # CSV instead of aligned text
//	ecobench -json            # machine-readable JSON instead of aligned text
//	ecobench -list            # list experiments
//
// A failed experiment no longer aborts the run: every failure is
// reported on stderr and the command exits non-zero at the end.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ecoscale/internal/experiments"
	"ecoscale/internal/runner"
	"ecoscale/internal/trace"
)

// jsonResult is one experiment table in the -json output.
type jsonResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Source  string     `json:"source"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// jsonOutput is the full -json document: every selected experiment
// table plus a snapshot of the runner's metrics registry (counters and
// wall-clock histograms with p50/p90/p95/p99 quantiles).
type jsonOutput struct {
	Experiments []jsonResult           `json:"experiments"`
	Metrics     *trace.MetricsSnapshot `json:"metrics"`
}

// selectScenarios resolves a -run spec against the registry: a
// comma-separated list of tokens, each an exact id (E3) or, when no id
// matches exactly, a prefix (A → A1–A5, E1 → only E1). Selection keeps
// registry order per token and drops duplicates.
func selectScenarios(reg []runner.Scenario, spec string) ([]runner.Scenario, error) {
	if spec == "" {
		return reg, nil
	}
	var out []runner.Scenario
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		var matched []runner.Scenario
		for _, s := range reg {
			if s.ID == tok {
				matched = append(matched, s)
			}
		}
		if len(matched) == 0 {
			for _, s := range reg {
				if strings.HasPrefix(s.ID, tok) {
					matched = append(matched, s)
				}
			}
		}
		if len(matched) == 0 {
			return nil, fmt.Errorf("no experiment matches %q (try -list)", tok)
		}
		for _, s := range matched {
			if !seen[s.ID] {
				seen[s.ID] = true
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// runTables runs the selected scenarios in order. Text and CSV tables
// are written to w as each scenario finishes; in JSON mode the tables are
// collected and returned instead. Failures are reported on stderr and
// their ids returned.
func runTables(w io.Writer, sel []runner.Scenario, opts runner.Options, csv, jsonOut bool) (results []jsonResult, failures []string) {
	for _, s := range sel {
		if !jsonOut {
			fmt.Fprintf(w, "### %s — %s (%s)\n", s.ID, s.Title, s.Source)
		}
		tbl, err := runner.Run(context.Background(), s, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", s.ID, err)
			failures = append(failures, s.ID)
			continue
		}
		switch {
		case jsonOut:
			results = append(results, jsonResult{
				ID: s.ID, Title: s.Title, Source: s.Source,
				Columns: tbl.Columns, Rows: tbl.Rows,
			})
		case csv:
			fmt.Fprint(w, tbl.CSV())
		default:
			fmt.Fprintln(w, tbl)
		}
	}
	return results, failures
}

func main() {
	// Indirect so deferred profile writers run even when experiments fail;
	// os.Exit directly in the body would skip them.
	os.Exit(mainExit())
}

func mainExit() int {
	run := flag.String("run", "", "experiment ids: comma-separated, exact or prefix (e.g. E3,E4 or A)")
	csv := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Int("parallel", 0, "points run concurrently per experiment (0 = GOMAXPROCS, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "per-point timeout (0 = none)")
	progress := flag.Bool("progress", false, "report per-point progress and a runner summary on stderr")
	quick := flag.Bool("quick", false, "trim the R-series resilience sweeps to a smoke run")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	metricsOut := flag.Bool("metrics", false, "dump the metrics registry in Prometheus text format on stderr after the run")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// The profile is written after the experiments finish so it shows
		// what the run left allocated, with allocation sites attributed.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	experiments.Quick = *quick
	reg := experiments.Registry()
	if *list {
		for _, s := range reg {
			fmt.Printf("%-4s %-45s (%s)\n", s.ID, s.Title, s.Source)
		}
		return 0
	}
	sel, err := selectScenarios(reg, *run)
	if err != nil {
		log.Print(err)
		return 1
	}

	metrics := trace.NewRegistry()
	opts := runner.Options{Parallel: *parallel, PointTimeout: *timeout, Metrics: metrics}
	if *progress {
		opts.Progress = func(ev runner.Event) {
			switch ev.Kind {
			case runner.PointCompleted:
				fmt.Fprintf(os.Stderr, "[%s %d/%d] %s done in %s\n",
					ev.Scenario, ev.Index+1, ev.Total, ev.Label, ev.Elapsed.Round(time.Microsecond))
			case runner.PointFailed:
				fmt.Fprintf(os.Stderr, "[%s %d/%d] %s FAILED after %s: %v\n",
					ev.Scenario, ev.Index+1, ev.Total, ev.Label, ev.Elapsed.Round(time.Microsecond), ev.Err)
			}
		}
	}

	start := time.Now()
	results, failures := runTables(os.Stdout, sel, opts, *csv, *jsonOut)
	if *jsonOut {
		snap := metrics.Snapshot()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{Experiments: results, Metrics: &snap}); err != nil {
			log.Print(err)
			return 1
		}
	}
	if *progress {
		completed := metrics.CounterTotal(runner.MetricPointsCompleted)
		failed := metrics.CounterTotal(runner.MetricPointsFailed)
		fmt.Fprintf(os.Stderr, "runner: %d points completed, %d failed in %s (parallel=%d)\n",
			completed, failed, time.Since(start).Round(time.Millisecond), *parallel)
	}
	if *metricsOut {
		if err := metrics.WritePrometheus(os.Stderr); err != nil {
			log.Print(err)
			return 1
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d experiments failed: %s\n",
			len(failures), len(sel), strings.Join(failures, ", "))
		return 1
	}
	return 0
}
