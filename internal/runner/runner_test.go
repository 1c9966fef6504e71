package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecoscale/internal/trace"
)

// sleepyScenario builds n points; point i returns row [i] after its
// delay (later-declared points finish first under parallelism, so
// declared-order assembly is actually exercised).
func sleepyScenario(n int) Scenario {
	return Scenario{
		ID: "T", Table: "t", Columns: []string{"i"},
		Points: func() ([]Point, error) {
			var pts []Point
			for i := 0; i < n; i++ {
				pts = append(pts, Point{
					Label: fmt.Sprintf("p%d", i),
					Run: func(context.Context) (Row, error) {
						time.Sleep(time.Duration(n-i) * time.Millisecond)
						return R(i), nil
					},
				})
			}
			return pts, nil
		},
	}
}

func TestResultsStayInDeclaredOrder(t *testing.T) {
	const n = 16
	tbl, err := Run(context.Background(), sleepyScenario(n), Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != n {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), n)
	}
	for i, r := range tbl.Rows {
		if r[0] != fmt.Sprint(i) {
			t.Errorf("row %d = %q, want %q", i, r[0], fmt.Sprint(i))
		}
	}
}

func TestParallelOutputMatchesSequential(t *testing.T) {
	s := sleepyScenario(12)
	seq, err := Run(context.Background(), s, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), s, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel table differs from sequential:\n%s\nvs\n%s", par, seq)
	}
}

func TestPanicSurfacesAsLabeledError(t *testing.T) {
	s := Scenario{
		ID: "P", Table: "p", Columns: []string{"v"},
		Points: func() ([]Point, error) {
			return []Point{
				{Label: "fine", Run: func(context.Context) (Row, error) { return R(1), nil }},
				{Label: "explodes", Run: func(context.Context) (Row, error) { panic("boom") }},
			}, nil
		},
	}
	_, err := Run(context.Background(), s, Options{Parallel: 4})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PointError", err)
	}
	if pe.Label != "explodes" || pe.Scenario != "P" {
		t.Errorf("PointError carries %q/%q, want P/explodes", pe.Scenario, pe.Label)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %q lost the panic value", err)
	}
}

func TestTimeoutCancelsStragglers(t *testing.T) {
	var cancelled atomic.Bool
	s := Scenario{
		ID: "TO", Table: "to", Columns: []string{"v"},
		Points: func() ([]Point, error) {
			return []Point{
				{Label: "quick", Run: func(context.Context) (Row, error) { return R("ok"), nil }},
				{Label: "straggler", Run: func(ctx context.Context) (Row, error) {
					select {
					case <-ctx.Done():
						cancelled.Store(true)
						return Row{}, ctx.Err()
					case <-time.After(30 * time.Second):
						return R("late"), nil
					}
				}},
			}, nil
		},
	}
	start := time.Now()
	_, err := Run(context.Background(), s, Options{Parallel: 2, PointTimeout: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("straggler should have failed with a timeout")
	}
	if !cancelled.Load() {
		t.Error("straggler never saw its context cancelled")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not unwrap to DeadlineExceeded", err)
	}
	var pe *PointError
	if !errors.As(err, &pe) || pe.Label != "straggler" {
		t.Errorf("timeout error not labeled with the straggler point: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not bound the run")
	}
}

func TestAllErrorsReportedInDeclaredOrder(t *testing.T) {
	s := Scenario{
		ID: "E", Table: "e", Columns: []string{"v"},
		Points: func() ([]Point, error) {
			return []Point{
				{Label: "a", Run: func(context.Context) (Row, error) { return Row{}, errors.New("first") }},
				{Label: "b", Run: func(context.Context) (Row, error) { return R(1), nil }},
				{Label: "c", Run: func(context.Context) (Row, error) { return Row{}, errors.New("second") }},
			}, nil
		},
	}
	_, err := Run(context.Background(), s, Options{Parallel: 3})
	if err == nil {
		t.Fatal("expected joined errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "first") || !strings.Contains(msg, "second") {
		t.Errorf("joined error %q missing a point failure", msg)
	}
	if strings.Index(msg, "first") > strings.Index(msg, "second") {
		t.Errorf("errors not in declared order: %q", msg)
	}
}

func TestFinalizeSeesRowsInDeclaredOrder(t *testing.T) {
	s := sleepyScenario(6)
	s.Finalize = func(tbl *trace.Table, rows []Row) error {
		for i, r := range rows {
			if r.Cells[0][0] != i {
				return fmt.Errorf("rows[%d] holds %v", i, r.Cells[0][0])
			}
		}
		tbl.AddRow("finalized")
		return nil
	}
	tbl, err := Run(context.Background(), s, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows[len(tbl.Rows)-1][0]; got != "finalized" {
		t.Errorf("finalize row missing, last row = %q", got)
	}
}

func TestMetricsAndProgress(t *testing.T) {
	reg := trace.NewRegistry()
	var events []Event
	s := Scenario{
		ID: "M", Table: "m", Columns: []string{"v"},
		Points: func() ([]Point, error) {
			return []Point{
				{Label: "ok", Run: func(context.Context) (Row, error) { return R(1), nil }},
				{Label: "bad", Run: func(context.Context) (Row, error) { return Row{}, errors.New("nope") }},
			}, nil
		},
	}
	_, err := Run(context.Background(), s, Options{
		Parallel: 2, Metrics: reg,
		Progress: func(ev Event) { events = append(events, ev) },
	})
	if err == nil {
		t.Fatal("expected the bad point to fail the run")
	}
	if got := reg.CounterTotal(MetricPointsStarted); got != 2 {
		t.Errorf("started = %d, want 2", got)
	}
	if got := reg.CounterTotal(MetricPointsCompleted); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := reg.CounterTotal(MetricPointsFailed); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if h := reg.Histogram(MetricPointWallUS, 0, 1e6, 60); h.Count() != 2 {
		t.Errorf("wall-clock histogram has %d samples, want 2", h.Count())
	}
	if len(events) != 4 { // 2 started + 1 completed + 1 failed
		t.Errorf("got %d progress events, want 4: %+v", len(events), events)
	}
}

func TestParentCancellationSkipsPendingPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, sleepyScenario(4), Options{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v", err)
	}
}

func TestMultiRowCellsAndRunSeq(t *testing.T) {
	s := Scenario{
		ID: "MR", Table: "mr", Columns: []string{"v"},
		Points: func() ([]Point, error) {
			return []Point{
				{Label: "two-rows", Run: func(context.Context) (Row, error) {
					return Row{Cells: [][]any{{"a"}, {"b"}}}, nil
				}},
				{Label: "value-only", Run: func(context.Context) (Row, error) { return V(42), nil }},
			}, nil
		},
	}
	tbl, err := Run(context.Background(), s, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "a" || tbl.Rows[1][0] != "b" {
		t.Errorf("multi-row point mis-assembled: %v", tbl.Rows)
	}
}
