package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	c := Counter{Name: "x"}
	c.Inc()
	c.Add(4)
	if c.Value != 5 {
		t.Errorf("Value = %d, want 5", c.Value)
	}
}

func TestStatBasics(t *testing.T) {
	s := NewStat("lat")
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe(v)
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Errorf("Min/Max = %v/%v, want 1/4", s.Min(), s.Max())
	}
	if s.Sum() != 10 {
		t.Errorf("Sum = %v, want 10", s.Sum())
	}
	wantVar := 1.25 // population variance of {1,2,3,4}
	if math.Abs(s.Variance()-wantVar) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), wantVar)
	}
	if math.Abs(s.StdDev()-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("StdDev = %v", s.StdDev())
	}
	if !strings.Contains(s.String(), "lat") {
		t.Errorf("String() missing name: %q", s.String())
	}
}

func TestStatEmpty(t *testing.T) {
	s := NewStat("e")
	if s.Mean() != 0 || s.Variance() != 0 {
		t.Error("empty stat should report zero mean/variance")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Error("empty stat min/max should be ±Inf")
	}
}

// Property: variance is never negative and mean is within [min, max].
func TestStatProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		s := NewStat("p")
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Observe(v)
		}
		if s.Count() == 0 {
			return true
		}
		return s.Variance() >= 0 && s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("h", 0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	for i := 0; i < 10; i++ {
		if h.Bucket(i) != 1 {
			t.Errorf("bucket %d = %d, want 1", i, h.Bucket(i))
		}
	}
	h.Observe(-5) // clamps to bucket 0
	h.Observe(99) // clamps to last bucket
	if h.Bucket(0) != 2 || h.Bucket(9) != 2 {
		t.Errorf("edge clamping failed: %d %d", h.Bucket(0), h.Bucket(9))
	}
	if h.Count() != 12 {
		t.Errorf("Count = %d, want 12", h.Count())
	}
	med := h.Quantile(0.5)
	if med < 3 || med > 7 {
		t.Errorf("median = %v, want ~5", med)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid histogram did not panic")
		}
	}()
	NewHistogram("bad", 5, 5, 10)
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram("h", 0, 1, 4)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable("demo", "a", "bbbb")
	tb.AddRow(1, "x")
	tb.AddRow(2.5, "yy")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "bbbb") || !strings.Contains(out, "2.5") {
		t.Errorf("missing content: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`say "hi"`, "x,y")
	csv := tb.CSV()
	want := "a,b\n\"say \"\"hi\"\"\",\"x,y\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Counter("b").Inc()
	if r.Counter("b").Value != 3 {
		t.Errorf("counter b = %d, want 3", r.Counter("b").Value)
	}
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("CounterNames = %v, want [a b]", names)
	}
	r.Stat("s").Observe(1)
	if r.Stat("s").Count() != 1 {
		t.Error("stat not shared across lookups")
	}
}
