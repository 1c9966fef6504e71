// Package trace provides the measurement vocabulary for ECOSCALE
// experiments: named counters, scalar statistics, histograms, time series,
// and plain-text/CSV table rendering used by cmd/ecobench to print the
// rows each experiment reports.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Label is one key=value dimension attached to a metric (worker, kernel,
// policy, device, …).
type Label struct{ Key, Value string }

// L constructs a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelKey renders name plus labels (sorted by key) as the registry map
// key, e.g. `rts.tasks{device="hw",worker="3"}`. Unlabeled metrics keep
// their bare name, so existing lookups are unchanged.
func labelKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing named count.
type Counter struct {
	Name   string
	Labels []Label
	Value  uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.Value += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Value++ }

// Gauge records a last-value metric plus a time-weighted mean over the
// sim clock. Set stores an untimed value (summary gauges written once,
// at report time); SetAt additionally integrates the previous value over
// the elapsed picoseconds, so TimeWeightedMean reflects how long each
// value was held rather than how often it was sampled.
type Gauge struct {
	Name   string
	Labels []Label

	value    float64
	set      bool
	timed    bool
	integral float64 // Σ value·Δt over [firstAt, lastAt], picoseconds
	firstAt  int64
	lastAt   int64
}

// Set stores the current value without advancing the time integral.
func (g *Gauge) Set(v float64) {
	g.value = v
	g.set = true
}

// SetAt stores the value observed at atPs simulated picoseconds,
// crediting the previously held value with the elapsed interval.
// Non-monotonic timestamps only update the last value.
func (g *Gauge) SetAt(atPs int64, v float64) {
	if !g.timed {
		g.firstAt, g.lastAt = atPs, atPs
		g.timed = true
	} else if atPs > g.lastAt {
		g.integral += g.value * float64(atPs-g.lastAt)
		g.lastAt = atPs
	}
	g.value = v
	g.set = true
}

// Value returns the last value stored (0 if never set).
func (g *Gauge) Value() float64 { return g.value }

// Seen reports whether the gauge was ever set.
func (g *Gauge) Seen() bool { return g.set }

// TimeWeightedMean returns the picosecond-weighted mean of the values
// held between the first and last SetAt. With no time extent (untimed
// Set, or a single SetAt) it degenerates to the last value.
func (g *Gauge) TimeWeightedMean() float64 {
	if !g.timed || g.lastAt <= g.firstAt {
		return g.value
	}
	return g.integral / float64(g.lastAt-g.firstAt)
}

// Stat accumulates scalar samples and reports summary statistics without
// retaining the samples themselves.
type Stat struct {
	Name   string
	Labels []Label
	n      uint64
	sum    float64
	sum2   float64
	min    float64
	max    float64
}

// NewStat returns an empty statistic accumulator.
func NewStat(name string) *Stat {
	return &Stat{Name: name, min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (s *Stat) Observe(v float64) {
	s.n++
	s.sum += v
	s.sum2 += v * v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// Count returns the number of samples observed.
func (s *Stat) Count() uint64 { return s.n }

// Sum returns the sum of all samples.
func (s *Stat) Sum() float64 { return s.sum }

// Mean returns the sample mean (0 if empty).
func (s *Stat) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Variance returns the population variance (0 if fewer than 2 samples).
func (s *Stat) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sum2/float64(s.n) - m*m
	if v < 0 { // numeric noise
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Stat) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest sample (+Inf if empty).
func (s *Stat) Min() float64 { return s.min }

// Max returns the largest sample (-Inf if empty).
func (s *Stat) Max() float64 { return s.max }

func (s *Stat) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.Name, s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Histogram buckets samples into fixed-width bins over [lo, hi); samples
// outside the range land in saturating edge bins.
type Histogram struct {
	Name    string
	Labels  []Label
	lo, hi  float64
	buckets []uint64
	stat    *Stat
}

// NewHistogram creates a histogram with n bins over [lo, hi).
func NewHistogram(name string, lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("trace: invalid histogram shape")
	}
	return &Histogram{Name: name, lo: lo, hi: hi, buckets: make([]uint64, n), stat: NewStat(name)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.stat.Observe(v)
	i := int(float64(len(h.buckets)) * (v - h.lo) / (h.hi - h.lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// Bucket returns the count in bin i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.stat.Count() }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 { return h.stat.Mean() }

// Quantile returns an approximate q-quantile (q in [0,1]) from bin
// counts, clamped to the observed [min, max] so a saturated edge bin
// cannot report a value no sample ever reached.
func (h *Histogram) Quantile(q float64) float64 {
	if h.stat.Count() == 0 {
		return 0
	}
	target := q * float64(h.stat.Count())
	var cum float64
	width := (h.hi - h.lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		cum += float64(c)
		if cum >= target {
			return h.clampObserved(h.lo + (float64(i)+0.5)*width)
		}
	}
	return h.clampObserved(h.hi)
}

// clampObserved bounds v to the observed sample range.
func (h *Histogram) clampObserved(v float64) float64 {
	if v < h.stat.min {
		return h.stat.min
	}
	if v > h.stat.max {
		return h.stat.max
	}
	return v
}

// Min returns the smallest observed sample (+Inf if empty).
func (h *Histogram) Min() float64 { return h.stat.min }

// Max returns the largest observed sample (-Inf if empty).
func (h *Histogram) Max() float64 { return h.stat.max }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.stat.Sum() }

// NumBuckets returns the bin count.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// BucketBound returns the exclusive upper bound of bin i.
func (h *Histogram) BucketBound(i int) float64 {
	width := (h.hi - h.lo) / float64(len(h.buckets))
	return h.lo + float64(i+1)*width
}

// Table is a simple column-oriented results table rendered as aligned text
// or CSV. It is the output format of every experiment row generator.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are rendered with %v, floats with %.4g,
// strings verbatim.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Registry is a namespace of counters, stats and histograms shared by
// the components of one simulated machine. Metrics may carry labels
// (worker, kernel, policy, …); each distinct (name, label set) is its
// own time series, keyed by the rendered labelKey.
type Registry struct {
	counters map[string]*Counter
	stats    map[string]*Stat
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		stats:    map[string]*Stat{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the named unlabeled counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterL(name) }

// CounterL returns the counter with the given labels, creating it on
// first use.
func (r *Registry) CounterL(name string, labels ...Label) *Counter {
	k := labelKey(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{Name: name, Labels: labels}
		r.counters[k] = c
	}
	return c
}

// CounterTotal sums the values of every counter series with the given
// name across all label sets, without creating anything.
func (r *Registry) CounterTotal(name string) uint64 {
	var total uint64
	for _, c := range r.counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// Gauge returns the named unlabeled gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeL(name) }

// GaugeL returns the gauge with the given labels, creating it on first
// use.
func (r *Registry) GaugeL(name string, labels ...Label) *Gauge {
	k := labelKey(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{Name: name, Labels: labels}
		r.gauges[k] = g
	}
	return g
}

// GaugeNames returns all gauge keys (name plus labels), sorted.
func (r *Registry) GaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stat returns the named unlabeled stat, creating it on first use.
func (r *Registry) Stat(name string) *Stat { return r.StatL(name) }

// StatL returns the stat with the given labels, creating it on first
// use.
func (r *Registry) StatL(name string, labels ...Label) *Stat {
	k := labelKey(name, labels)
	s, ok := r.stats[k]
	if !ok {
		s = NewStat(name)
		s.Labels = labels
		r.stats[k] = s
	}
	return s
}

// Histogram returns the named unlabeled histogram, creating it on first
// use with n bins over [lo, hi).
func (r *Registry) Histogram(name string, lo, hi float64, n int) *Histogram {
	return r.HistogramL(name, lo, hi, n)
}

// HistogramL returns the histogram with the given labels, creating it
// on first use with n bins over [lo, hi). The shape arguments are only
// consulted at creation.
func (r *Registry) HistogramL(name string, lo, hi float64, n int, labels ...Label) *Histogram {
	k := labelKey(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram(name, lo, hi, n)
		h.Labels = labels
		r.hists[k] = h
	}
	return h
}

// FindHistogram returns the histogram stored under key (name plus
// rendered labels), or nil — a lookup that never creates.
func (r *Registry) FindHistogram(key string) *Histogram { return r.hists[key] }

// CounterNames returns all counter keys (name plus labels), sorted.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StatNames returns all stat keys, sorted.
func (r *Registry) StatNames() []string {
	names := make([]string, 0, len(r.stats))
	for n := range r.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns all histogram keys, sorted.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
