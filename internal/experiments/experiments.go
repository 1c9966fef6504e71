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

// Registry returns all experiment scenarios in order.
func Registry() []runner.Scenario {
	return []runner.Scenario{
		scenE1(), scenE2(), scenE3(), scenE4(), scenE5(), scenE6(),
		scenE7(), scenE8(), scenE9(), scenE10(), scenE11(), scenE12(),
		scenE13(), scenE14(), scenE15(), scenE16(),
		scenA1(), scenA2(), scenA3(), scenA4(), scenA5(),
		scenR1(), scenR2(), scenR3(), scenR4(),
	}
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
