package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestGaugeSetUntimed(t *testing.T) {
	var g Gauge
	if g.Seen() || g.Value() != 0 {
		t.Fatal("zero gauge must look unset")
	}
	g.Set(3)
	g.Set(7)
	if !g.Seen() || g.Value() != 7 {
		t.Fatalf("Value=%v Seen=%v; want 7, true", g.Value(), g.Seen())
	}
	// Untimed gauges have no time extent: the mean is the last value.
	if got := g.TimeWeightedMean(); got != 7 {
		t.Fatalf("TimeWeightedMean=%v, want 7", got)
	}
}

func TestGaugeTimeWeightedMean(t *testing.T) {
	var g Gauge
	g.SetAt(0, 10)  // holds 10 over [0,100)
	g.SetAt(100, 2) // holds 2 over [100,200)
	g.SetAt(200, 99)
	// (10*100 + 2*100) / 200 = 6; the final value has no extent yet.
	if got := g.TimeWeightedMean(); got != 6 {
		t.Fatalf("TimeWeightedMean=%v, want 6", got)
	}
	if g.Value() != 99 {
		t.Fatalf("Value=%v, want 99", g.Value())
	}
	// A single timed sample degenerates to the last value.
	var one Gauge
	one.SetAt(50, 4)
	if got := one.TimeWeightedMean(); got != 4 {
		t.Fatalf("single-sample mean=%v, want 4", got)
	}
}

func TestGaugeNonMonotonicTimestamps(t *testing.T) {
	var g Gauge
	g.SetAt(100, 1)
	g.SetAt(50, 5) // goes backwards: value updates, integral does not
	if g.Value() != 5 {
		t.Fatalf("Value=%v, want 5", g.Value())
	}
	g.SetAt(200, 0)
	// Value 5 held over [100,200): mean = 5.
	if got := g.TimeWeightedMean(); got != 5 {
		t.Fatalf("TimeWeightedMean=%v, want 5", got)
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("a").Set(1)
	r.GaugeL("a", L("worker", "3")).Set(2)
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("Gauge must intern by name")
	}
	if r.Gauge("a") == r.GaugeL("a", L("worker", "3")) {
		t.Fatal("labeled gauge must be a distinct instance")
	}
	names := r.GaugeNames()
	if len(names) != 2 || names[0] != "a" || names[1] != `a{worker="3"}` {
		t.Fatalf("GaugeNames=%v", names)
	}
	if g := r.GaugeL("a", L("worker", "3")); g.Value() != 2 {
		t.Fatalf("labeled gauge value = %v, want 2", g.Value())
	}
}

func TestGaugeExports(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeL("util.cpu", L("component", "cores"))
	g.SetAt(0, 0.5)
	g.SetAt(100, 0.5)

	snap := r.Snapshot()
	if len(snap.Gauges) != 1 {
		t.Fatalf("%d gauge snapshots, want 1", len(snap.Gauges))
	}
	gs := snap.Gauges[0]
	if gs.Name != "util.cpu" || gs.Value != 0.5 || gs.TimeWeightedMean != 0.5 {
		t.Fatalf("gauge snapshot: %+v", gs)
	}
	if gs.Labels["component"] != "cores" {
		t.Fatalf("gauge labels: %+v", gs.Labels)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Gauges) != 1 || round.Gauges[0].TimeWeightedMean != 0.5 {
		t.Fatalf("JSON round trip: %+v", round.Gauges)
	}

	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ecoscale_util_cpu gauge",
		`ecoscale_util_cpu{component="cores"} 0.5`,
		`ecoscale_util_cpu_twa{component="cores"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
