package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// chromeEvent mirrors one trace-event for round-trip decoding.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

func TestWriteChromeRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.SetWorkerLanes(1)
	tr.Add(Span{Name: "matmul", Cat: CatCompute, Start: 2_000_000, End: 5_000_000,
		PID: WorkerPID(0), TID: TIDCPU, Task: 7, Detail: "cpu", Arg: 3})
	tr.Instant(1_000_000, CatDispatch, "dispatch", WorkerPID(0), TIDCPU)
	tr.Add(Span{Name: `quote"back\slash`, Cat: CatDMA, Start: 0, End: 500_000,
		PID: WorkerPID(0), TID: TIDDMA})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	var meta, complete, instants []chromeEvent
	for _, e := range got.TraceEvents {
		switch e.Ph {
		case "M":
			meta = append(meta, e)
		case "X":
			complete = append(complete, e)
		case "i":
			instants = append(instants, e)
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if len(meta) != 4 || len(complete) != 2 || len(instants) != 1 {
		t.Fatalf("event mix = %d M, %d X, %d i; want 4, 2, 1", len(meta), len(complete), len(instants))
	}
	if meta[0].Name != "process_name" || meta[0].Args["name"] != "worker 0" {
		t.Fatalf("process metadata wrong: %+v", meta[0])
	}
	for i, lane := range []string{"cpu", "fabric", "dma"} {
		if e := meta[1+i]; e.Name != "thread_name" || e.PID != WorkerPID(0) || e.TID != i || e.Args["name"] != lane {
			t.Fatalf("lane %d metadata wrong: %+v", i, e)
		}
	}

	// 2ms..5ms in ps must round-trip to ts=2, dur=3 microseconds.
	var mm chromeEvent
	for _, e := range complete {
		if e.Name == "matmul" {
			mm = e
		}
	}
	if mm.TS != 2 || mm.Dur != 3 || mm.PID != WorkerPID(0) || mm.TID != TIDCPU || mm.Cat != CatCompute {
		t.Fatalf("matmul span round-trip wrong: %+v", mm)
	}
	if mm.Args["task"] != float64(7) || mm.Args["detail"] != "cpu" || mm.Args["arg"] != float64(3) {
		t.Fatalf("matmul args wrong: %+v", mm.Args)
	}
	if instants[0].S != "t" || instants[0].TS != 1 {
		t.Fatalf("instant wrong: %+v", instants[0])
	}
	// Events must come out sorted by start time.
	prev := -1.0
	for _, e := range complete {
		if e.TS < prev {
			t.Fatalf("events not sorted by ts")
		}
		prev = e.TS
	}
}

func TestWriteChromeNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	var nilTr *Tracer
	if err := nilTr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("nil tracer export invalid: %v", err)
	}
	if len(got.TraceEvents) != 0 {
		t.Fatalf("nil tracer exported %d events", len(got.TraceEvents))
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Add(Span{Name: "x"})
	tr.Instant(0, CatSteal, "probe", 0, 0)
	tr.SetProcessName(0, "p")
	tr.SetWorkerLanes(1)
	if tr.Enabled() || tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must look empty and disabled")
	}
}

// TestDisabledTracerZeroAlloc is the ISSUE acceptance check: the
// disabled (nil) tracer path must not allocate on the hot path.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Add(Span{Name: "matmul", Cat: CatCompute, Start: 1, End: 2,
			PID: 1, TID: 0, Task: 42, Detail: "cpu", Arg: 3})
		tr.Instant(5, CatDispatch, "dispatch", 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per op; want 0", allocs)
	}
}

func BenchmarkDisabledTracerAdd(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Add(Span{Name: "matmul", Cat: CatCompute, Start: int64(i), End: int64(i + 1),
			PID: 1, TID: 0, Task: uint64(i), Detail: "cpu"})
	}
}

func BenchmarkEnabledTracerAdd(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Add(Span{Name: "matmul", Cat: CatCompute, Start: int64(i), End: int64(i + 1),
			PID: 1, TID: 0, Task: uint64(i), Detail: "cpu"})
	}
}

// TestWriteFlow: the Fig. 5 listing maps each layer's span to one line,
// skips spans that are not Fig. 5 steps, sorts by the time each step
// happens, and a cut listing ends by naming how many lines it left out.
func TestWriteFlow(t *testing.T) {
	tr := NewTracer()
	tr.Add(Span{Name: "fir", Cat: CatDispatch, Start: 1e6, End: 1e6, PID: 2, Detail: "hw"})
	tr.Add(Span{Name: "fir", Cat: CatRoute, Start: 1e6, End: 1e6, PID: 2, Arg: 3})
	tr.Add(Span{Name: "fir", Cat: CatQueue, Start: 0, End: 1e6, PID: 2})
	tr.Add(Span{Name: "fir", Cat: CatSMMU, Start: 1e6, End: 2e6, PID: 4, TID: TIDFabric, Arg: 1})
	tr.Add(Span{Name: "fir", Cat: CatCompute, Start: 2e6, End: 5e6, PID: 2, Detail: "cpu"})
	tr.Add(Span{Name: "fir", Cat: CatTask, Start: 0, End: 8e6, PID: 2, Detail: "hw"})
	// Recorded after the task but rendered at its start.
	tr.Add(Span{Name: "fir", Cat: CatCompute, Start: 2.5e6, End: 7.5e6, PID: 4, TID: TIDFabric, Detail: "hw"})
	lines := []string{
		"       1.000us  runtime      worker 1: fir dispatched to hw\n",
		"       1.000us  unilogic     route fir: caller w1 -> instance fir@3\n",
		"       2.000us  middleware   doorbell for fir at worker 3 (from w1), SMMU translated\n",
		"       2.500us  hardware     fir@w3: arguments streamed in, pipeline busy 5.000us\n",
		"       8.000us  runtime      worker 1: fir completed on hw (recorded to history)\n",
	}
	for _, c := range []struct {
		max  int
		want string
	}{
		{0, strings.Join(lines, "")},
		{5, strings.Join(lines, "")},
		{2, lines[0] + lines[1] + "... 3 more events not shown\n"},
	} {
		var b strings.Builder
		if err := tr.WriteFlow(&b, c.max); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.want {
			t.Errorf("WriteFlow(max=%d):\n%s\nwant:\n%s", c.max, b.String(), c.want)
		}
	}
	var b strings.Builder
	if err := (*Tracer)(nil).WriteFlow(&b, 0); err != nil || b.Len() != 0 {
		t.Errorf("nil tracer listing = %q, %v; want empty", b.String(), err)
	}
}
