// Package experiments contains the reproduction of every figure and
// quantitative claim in the ECOSCALE paper as declarative scenarios
// (E1–E16 plus ablations A1–A5, indexed in DESIGN.md). Each scenario
// is an ordered list of independent points; every point builds the
// machines it needs, runs its workload, and returns the rows the
// paper's argument predicts. internal/runner executes them —
// sequentially or fanned out over a worker pool with byte-identical
// output — cmd/ecobench prints them; the root bench_test.go wraps each
// in a testing.B benchmark; EXPERIMENTS.md records claim-vs-measured.
package experiments

import (
	"fmt"

	"ecoscale/internal/runner"
)

// Quick trims the R-series sweeps (fewer points, shorter streams) so
// `make check` can smoke the resilience suite in seconds. Tables are
// still deterministic — Quick selects different sweeps, it does not
// sample.
var Quick bool

// Every Row.Value type that rides through the result cache must be
// gob-registered so a decoded row's Value survives the Finalize type
// assertion. New experiments that add a Value type must add it here.
func init() {
	runner.RegisterCacheValue(e2Result{})
	runner.RegisterCacheValue(e5Result{})
	runner.RegisterCacheValue(e10Result{})
	runner.RegisterCacheValue(sweepResult{})
	runner.RegisterCacheValue(r1Result{})
	runner.RegisterCacheValue(r2Result{})
}

// Registry returns all experiment scenarios in order.
//
// Every scenario is marked Cacheable here rather than in each literal:
// the whole suite is deterministic by construction (ecobench's golden
// test pins the full output in docs/ecobench_output.txt), so a point's
// rows are a pure function of (scenario ID, point key, kernel version)
// and safe to memoize in the content-addressed store. The one
// label-invisible input — R1's Quick-trimmed task total — is folded
// into that point's explicit Key. A future scenario that samples host
// state must leave Cacheable unset in its literal AND be excluded here.
func Registry() []runner.Scenario {
	scens := []runner.Scenario{
		scenE1(), scenE2(), scenE3(), scenE4(), scenE5(), scenE6(),
		scenE7(), scenE8(), scenE9(), scenE10(), scenE11(), scenE12(),
		scenE13(), scenE14(), scenE15(), scenE16(),
		scenA1(), scenA2(), scenA3(), scenA4(), scenA5(),
		scenR1(), scenR2(), scenR3(), scenR4(),
	}
	for i := range scens {
		scens[i].Cacheable = true
	}
	return scens
}

// ByID returns the scenario with the given id.
func ByID(id string) (runner.Scenario, error) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, nil
		}
	}
	return runner.Scenario{}, fmt.Errorf("experiments: unknown id %q", id)
}
