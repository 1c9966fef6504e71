package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{Nanosecond, "1.000ns"},
		{Microsecond, "1.000us"},
		{Millisecond, "1.000ms"},
		{2 * Second, "2.000000s"},
		{Forever, "∞"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := (3 * Nanosecond).Nanos(); got != 3 {
		t.Errorf("Nanos = %v, want 3", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
	if e.EventsRun() != 3 {
		t.Errorf("EventsRun = %d, want 3", e.EventsRun())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v; want insertion order", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.After(1, func() { fired = append(fired, e.Now()) })
	})
	e.RunUntilIdle()
	if len(fired) != 2 || fired[0] != 11 || fired[1] != 15 {
		t.Fatalf("nested events fired at %v, want [11 15]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	id := e.At(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Error("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Error("second Cancel returned true")
	}
	e.RunUntilIdle()
	if ran {
		t.Error("cancelled event still ran")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	id := e.At(10, func() {})
	e.RunUntilIdle()
	if e.Cancel(id) {
		t.Error("Cancel of fired event returned true")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(1, func() { n++; e.Stop() })
	e.At(2, func() { n++ })
	e.Run(Forever)
	if n != 1 {
		t.Errorf("ran %d events after Stop, want 1", n)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(30, func() { fired = append(fired, 30) })
	end := e.Run(20)
	if end != 20 {
		t.Errorf("Run returned %v, want 20 (clock advanced to deadline)", end)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Errorf("fired %v, want [10]", fired)
	}
	e.Run(Forever)
	if len(fired) != 2 {
		t.Errorf("remaining event not fired after deadline resume")
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestEngineDeterminism: same seed and schedule => identical trace.
func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		var trace []uint64
		var spawn func()
		n := 0
		spawn = func() {
			n++
			trace = append(trace, uint64(e.Now()), e.RNG().Uint64())
			if n < 200 {
				e.After(Time(e.RNG().Intn(100)+1), spawn)
			}
		}
		e.At(0, spawn)
		e.RunUntilIdle()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// the schedule thrown at the engine.
func TestEventTimeMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunUntilIdle()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted %d immediately, want 2", granted)
	}
	if r.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", r.InUse())
	}
}

func TestResourceQueueing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	var order []int
	e.At(0, func() {
		r.Use(10, nil) // occupies [0,10)
		r.Acquire(func() {
			order = append(order, 1)
			e.After(5, r.Release)
		})
		r.Acquire(func() { order = append(order, 2); r.Release() })
	})
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order %v, want [1 2]", order)
	}
	if e.Now() != 15 {
		t.Errorf("finished at %v, want 15", e.Now())
	}
	if r.TotalWait() != 10+15 {
		t.Errorf("TotalWait = %v, want 25", r.TotalWait())
	}
	if r.MaxQueue() != 2 {
		t.Errorf("MaxQueue = %d, want 2", r.MaxQueue())
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "port", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewResource(e, "bad", 0)
}

// Property: a capacity-C resource never has more than C concurrent holders.
func TestResourceCapacityProperty(t *testing.T) {
	prop := func(capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		n := int(nRaw%64) + 1
		e := NewEngine(3)
		r := NewResource(e, "r", capacity)
		holders, maxHolders := 0, 0
		for i := 0; i < n; i++ {
			hold := Time(e.RNG().Intn(20) + 1)
			e.At(Time(e.RNG().Intn(50)), func() {
				r.Acquire(func() {
					holders++
					if holders > maxHolders {
						maxHolders = holders
					}
					e.After(hold, func() {
						holders--
						r.Release()
					})
				})
			})
		}
		e.RunUntilIdle()
		return maxHolders <= capacity && r.Acquisitions() == uint64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSignal(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var got []int
	s.Wait(func() { got = append(got, 1) })
	s.Wait(func() { got = append(got, 2) })
	e.At(5, s.Fire)
	e.RunUntilIdle()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("waiters ran %v, want [1 2]", got)
	}
	if !s.Done() || s.FiredAt() != 5 {
		t.Errorf("Done=%v FiredAt=%v, want true/5", s.Done(), s.FiredAt())
	}
	// Late waiter runs immediately.
	ran := false
	s.Wait(func() { ran = true })
	if !ran {
		t.Error("late waiter did not run immediately")
	}
}

func TestSignalDoubleFirePanics(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	s.Fire()
	defer func() {
		if recover() == nil {
			t.Error("double Fire did not panic")
		}
	}()
	s.Fire()
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e, 3)
	done := false
	wg.Wait(func() { done = true })
	wg.DoneOne()
	wg.DoneOne()
	if done {
		t.Error("fired early")
	}
	wg.DoneOne()
	if !done {
		t.Error("did not fire after all completions")
	}
}

func TestWaitGroupZero(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e, 0)
	done := false
	wg.Wait(func() { done = true })
	if !done {
		t.Error("zero-count group did not fire on Wait")
	}
}

func TestWaitGroupOverCompletePanics(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e, 1)
	wg.DoneOne()
	defer func() {
		if recover() == nil {
			t.Error("over-completion did not panic")
		}
	}()
	wg.DoneOne()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(9)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / float64(n)
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

// Property: Perm always returns a permutation of [0,n).
func TestRNGPermProperty(t *testing.T) {
	r := NewRNG(13)
	prop := func(nRaw uint8) bool {
		n := int(nRaw % 100)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forked streams start identically")
	}
}
