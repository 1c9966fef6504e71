// Package runner executes declarative experiment scenarios. A Scenario
// is an ordered list of independent Points — each builds its own
// engine/machine and returns the raw measurement for its table rows —
// plus an optional Finalize step for cross-point derived columns
// ("vs baseline" ratios and the like). Run fans the points out over a
// bounded worker pool and assembles results in declared order, so the
// output of a parallel run is byte-identical to a sequential one: the
// sim kernel stays single-threaded per engine, and the suite is
// parallel only across engines.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ecoscale/internal/trace"
)

// Row is the result of one Point: zero or more table rows (Cells, each
// rendered through trace.Table.AddRow in declared point order) plus an
// optional opaque Value consumed by the scenario's Finalize step.
type Row struct {
	Cells [][]any
	Value any
	// Shares, when set, carries the point's critical-path category
	// shares (from internal/profile). When any point of a scenario sets
	// Shares, Run appends one "cp:<name>" column per distinct name —
	// after the declared columns, before Finalize — so E-series tables
	// can pin bottleneck claims per point. Points without a given share
	// render "-".
	Shares []NamedShare
}

// NamedShare is one named fraction attached to a Row.
type NamedShare struct {
	Name string
	Frac float64
}

// R builds the common single-row Row.
func R(cells ...any) Row { return Row{Cells: [][]any{cells}} }

// V builds a cell-less Row carrying only a Finalize value.
func V(value any) Row { return Row{Value: value} }

// Point is one independent unit of a scenario: a label for error and
// progress reporting, and a self-contained Run that constructs whatever
// engines and machines it needs. Points of one scenario must not share
// mutable state (engines, RNGs, accumulators); the runner may execute
// them concurrently and `go test -race` audits that they do not.
// Set-up several points need may be shared read-only: a Shared made in
// Points splits it into items that every point needing them computes
// together, and each Run, which calls Points afresh, starts cold.
type Point struct {
	Label string
	Run   func(ctx context.Context) (Row, error)
}

// Scenario is one declarative experiment: identity, table shape, a
// Points constructor (setup errors surface here, before any point
// runs), and an optional Finalize for derived columns that need the
// results of several points at once.
type Scenario struct {
	ID     string
	Title  string // registry title (one line)
	Source string // where in the paper the claim lives

	Table   string   // results table title
	Columns []string // results table column headers

	// Points builds the ordered point list. It must be cheap and
	// deterministic; per-point work belongs in Point.Run.
	Points func() ([]Point, error)

	// Finalize, when set, runs after all points finished, sequentially,
	// with the assembled table (all point Cells already appended in
	// declared order) and the full rows slice. It computes cross-point
	// derived columns and may append or rewrite rows.
	Finalize func(tbl *trace.Table, rows []Row) error
}

// PointError labels a point failure with its scenario and point.
type PointError struct {
	Scenario string
	Label    string
	Err      error
}

func (e *PointError) Error() string {
	return fmt.Sprintf("%s point %q: %v", e.Scenario, e.Label, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// EventKind classifies a progress event.
type EventKind int

// Progress event kinds, in lifecycle order.
const (
	PointStarted EventKind = iota
	PointCompleted
	PointFailed
)

func (k EventKind) String() string {
	switch k {
	case PointStarted:
		return "started"
	case PointCompleted:
		return "completed"
	case PointFailed:
		return "failed"
	}
	return "unknown"
}

// Event is one progress notification. Events for a single point arrive
// in order, but events of different points interleave as the pool
// schedules them.
type Event struct {
	Scenario string
	Label    string
	Index    int // declared point index
	Total    int // points in the scenario
	Kind     EventKind
	Elapsed  time.Duration // host wall clock; zero for PointStarted
	Err      error         // set for PointFailed
}

// Metric names the runner records into Options.Metrics.
const (
	MetricPointsStarted   = "runner.points.started"
	MetricPointsCompleted = "runner.points.completed"
	MetricPointsFailed    = "runner.points.failed"
	MetricPointWallUS     = "runner.point.wall.us" // host wall clock per point
)

// Options tunes one Run call.
type Options struct {
	// Parallel is the worker-pool size; <= 0 means GOMAXPROCS.
	Parallel int
	// PointTimeout bounds each point's context; 0 means none. Points
	// observe it through the ctx passed to Run — a point that never
	// checks its ctx runs to completion regardless.
	PointTimeout time.Duration
	// Metrics, when set, receives points started/completed/failed
	// counters (labeled by scenario) and a per-point wall-clock
	// histogram. The runner serializes its own registry access.
	Metrics *trace.Registry
	// Progress, when set, is called for every point event. Calls are
	// serialized; the callback must not block for long.
	Progress func(Event)
}

// Run executes the scenario and assembles its table. Results are placed
// in declared point order regardless of completion order; a parallel
// run therefore produces output byte-identical to Parallel == 1. If any
// point fails, Run returns all point errors (declared order) joined,
// and no table. A panic inside a point is recovered and surfaces as a
// *PointError carrying the point label.
func Run(ctx context.Context, s Scenario, opts Options) (*trace.Table, error) {
	points, err := s.Points()
	if err != nil {
		return nil, fmt.Errorf("%s: building points: %w", s.ID, err)
	}
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	if workers < 1 {
		workers = 1
	}

	rows := make([]Row, len(points))
	errs := make([]error, len(points))
	var mu sync.Mutex // serializes Metrics and Progress across workers

	notify := func(ev Event, metric string, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if opts.Metrics != nil {
			opts.Metrics.CounterL(metric, trace.L("scenario", s.ID)).Inc()
			if ev.Kind != PointStarted {
				opts.Metrics.Histogram(MetricPointWallUS, 0, 1e6, 60).
					Observe(float64(elapsed.Microseconds()))
			}
		}
		if opts.Progress != nil {
			opts.Progress(ev)
		}
	}

	runOne := func(i int) {
		p := points[i]
		ev := Event{Scenario: s.ID, Label: p.Label, Index: i, Total: len(points)}
		ev.Kind = PointStarted
		notify(ev, MetricPointsStarted, 0)
		start := time.Now()

		pctx := ctx
		if opts.PointTimeout > 0 {
			var cancel context.CancelFunc
			pctx, cancel = context.WithTimeout(ctx, opts.PointTimeout)
			defer cancel()
		}

		execute := func() (row Row, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			if err := pctx.Err(); err != nil {
				return Row{}, err // cancelled before the point started
			}
			return p.Run(pctx)
		}
		row, err := execute()

		elapsed := time.Since(start)
		if err != nil {
			errs[i] = &PointError{Scenario: s.ID, Label: p.Label, Err: err}
			ev.Kind, ev.Elapsed, ev.Err = PointFailed, elapsed, errs[i]
			notify(ev, MetricPointsFailed, elapsed)
			return
		}
		rows[i] = row
		ev.Kind, ev.Elapsed = PointCompleted, elapsed
		notify(ev, MetricPointsCompleted, elapsed)
	}

	if workers == 1 {
		for i := range points {
			runOne(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runOne(i)
				}
			}()
		}
		for i := range points {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	tbl := trace.NewTable(s.Table, s.Columns...)
	for _, r := range rows {
		for _, cells := range r.Cells {
			tbl.AddRow(cells...)
		}
	}
	appendShareColumns(tbl, rows)
	if s.Finalize != nil {
		if err := s.Finalize(tbl, rows); err != nil {
			return nil, fmt.Errorf("%s: finalize: %w", s.ID, err)
		}
	}
	return tbl, nil
}

// appendShareColumns widens the table with one cp:<name> column per
// distinct share name (first-appearance order over declared points, so
// the layout is deterministic). Each of a point's table rows receives
// that point's shares, rendered as a fixed-precision percentage.
func appendShareColumns(tbl *trace.Table, rows []Row) {
	var names []string
	seen := map[string]bool{}
	for _, r := range rows {
		for _, sh := range r.Shares {
			if !seen[sh.Name] {
				seen[sh.Name] = true
				names = append(names, sh.Name)
			}
		}
	}
	if len(names) == 0 {
		return
	}
	for _, n := range names {
		tbl.Columns = append(tbl.Columns, "cp:"+n)
	}
	ri := 0
	for _, r := range rows {
		byName := map[string]float64{}
		for _, sh := range r.Shares {
			byName[sh.Name] = sh.Frac
		}
		for range r.Cells {
			if ri >= len(tbl.Rows) {
				return // Finalize-free invariant: one table row per cell row
			}
			for _, n := range names {
				cell := "-"
				if f, ok := byName[n]; ok {
					cell = fmt.Sprintf("%.1f%%", f*100)
				}
				tbl.Rows[ri] = append(tbl.Rows[ri], cell)
			}
			ri++
		}
	}
}
