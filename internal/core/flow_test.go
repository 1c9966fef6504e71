package core

import (
	"strings"
	"testing"

	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
)

// TestFlowTraceReproducesFig5 drives one hardware call through the full
// stack with tracing on and checks the Fig. 5 sequence: the runtime
// dispatches, UNILOGIC routes, the middleware rings the doorbell and
// translates, the hardware streams/computes, and the runtime records the
// completion — in that order.
func TestFlowTraceReproducesFig5(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.FlowTrace = true
	m := New(cfg)
	if m.Flow == nil {
		t.Fatal("flow log not created")
	}
	if _, err := m.DeployKernel(srcScale, hls.DefaultDirectives(), 0); err != nil {
		t.Fatal(err)
	}
	s := m.Sched(1) // remote caller
	s.Policy = rts.PolicyHW{}
	addr := m.Space.Alloc(0, 4096)
	s.Submit(&rts.Task{
		Kernel:   "scale",
		Bindings: map[string]float64{"N": 128},
		Reads:    []accel.Span{{Addr: addr, Size: 1024}},
	}, nil)
	m.Run()
	evs := m.Flow.Events()
	if len(evs) < 5 {
		t.Fatalf("only %d flow events", len(evs))
	}
	// Expected layer order for the first call.
	wantOrder := []string{"runtime", "unilogic", "middleware", "hardware"}
	idx := 0
	for _, e := range evs {
		if idx < len(wantOrder) && e.Layer == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Errorf("layer sequence incomplete (%d/%d):\n%s", idx, len(wantOrder), m.Flow.String())
	}
	// The final event must be the runtime recording completion.
	last := evs[len(evs)-1]
	if last.Layer != "runtime" || !strings.Contains(last.Event, "completed") {
		t.Errorf("last event = %s/%s", last.Layer, last.Event)
	}
	// Timestamps are monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].AtPs < evs[i-1].AtPs {
			t.Fatal("flow events out of order")
		}
	}
	if !strings.Contains(m.Flow.String(), "Fig. 5") {
		t.Error("String() missing header")
	}
	layers := map[string]bool{}
	for _, e := range evs {
		layers[e.Layer] = true
	}
	if len(layers) < 4 {
		t.Errorf("layers = %v", layers)
	}
}
