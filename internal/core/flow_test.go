package core

import (
	"strconv"
	"strings"
	"testing"

	"ecoscale/internal/accel"
	"ecoscale/internal/hls"
	"ecoscale/internal/rts"
)

// TestFlowTraceReproducesFig5 drives one hardware call through the full
// stack with tracing on and checks the Fig. 5 listing the tracer renders:
// the runtime dispatches, UNILOGIC routes, the middleware rings the
// doorbell and translates, the hardware computes, and the runtime records
// the completion — in that order.
func TestFlowTraceReproducesFig5(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Trace = true
	m := New(cfg)
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
	var listing strings.Builder
	if err := m.Tracer.WriteFlow(&listing, 0); err != nil {
		t.Fatal(err)
	}
	type event struct {
		at          float64
		layer, text string
	}
	var evs []event
	for _, line := range strings.Split(strings.TrimSuffix(listing.String(), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			t.Fatalf("malformed listing line %q", line)
		}
		at, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "us"), 64)
		if err != nil {
			t.Fatalf("listing line %q: %v", line, err)
		}
		evs = append(evs, event{at, f[1], strings.Join(f[2:], " ")})
	}
	if len(evs) < 5 {
		t.Fatalf("only %d flow events:\n%s", len(evs), listing.String())
	}
	// Expected layer order for the first call.
	wantOrder := []string{"runtime", "unilogic", "middleware", "hardware"}
	idx := 0
	for _, e := range evs {
		if idx < len(wantOrder) && e.layer == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Errorf("layer sequence incomplete (%d/%d):\n%s", idx, len(wantOrder), listing.String())
	}
	// The final event must be the runtime recording completion.
	last := evs[len(evs)-1]
	if last.layer != "runtime" || !strings.Contains(last.text, "completed") {
		t.Errorf("last event = %s/%s", last.layer, last.text)
	}
	// Timestamps are monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].at < evs[i-1].at {
			t.Fatalf("flow events out of order:\n%s", listing.String())
		}
	}
	layers := map[string]bool{}
	for _, e := range evs {
		layers[e.layer] = true
	}
	if len(layers) < 4 {
		t.Errorf("layers = %v", layers)
	}
}
