package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sharedProbe builds prepare/finish pairs over an order-sensitive input
// stream (a linear congruential generator that prepare must advance one
// call at a time) and records what the helper does with them.
type sharedProbe struct {
	state uint64 // advanced only by prepare; -race flags concurrent calls

	mu       sync.Mutex
	prepared []int // prepare indices, in call order

	alive, maxAlive atomic.Int64 // inputs between prepare and the end of finish

	failPrepare, failFinish   int // index whose call returns an error, -1 for none
	panicPrepare, panicFinish int // index whose call panics, -1 for none
}

func newSharedProbe() *sharedProbe {
	return &sharedProbe{state: 1, failPrepare: -1, failFinish: -1, panicPrepare: -1, panicFinish: -1}
}

func (p *sharedProbe) prepare(i int) ([]uint64, error) {
	p.mu.Lock()
	p.prepared = append(p.prepared, i)
	p.mu.Unlock()
	if a := p.alive.Add(1); a > p.maxAlive.Load() {
		p.maxAlive.Store(a) // prepare is serial, so no lost update
	}
	if i == p.panicPrepare {
		panic(fmt.Sprintf("boom %d", i))
	}
	if i == p.failPrepare {
		p.alive.Add(-1)
		return nil, fmt.Errorf("prepare %d failed", i)
	}
	in := make([]uint64, 64+i%7)
	for k := range in {
		p.state = p.state*6364136223846793005 + 1442695040888963407
		in[k] = p.state >> 33
	}
	return in, nil
}

func (p *sharedProbe) finish(i int, in []uint64) (uint64, error) {
	defer p.alive.Add(-1)
	if i%3 == 0 {
		time.Sleep(50 * time.Microsecond) // let items finish out of order
	}
	if i == p.panicFinish {
		panic(fmt.Sprintf("boom %d", i))
	}
	if i == p.failFinish {
		return 0, fmt.Errorf("finish %d failed", i)
	}
	var sum uint64
	for k, v := range in {
		sum += v * uint64(k+i+1)
	}
	return sum, nil
}

// serial is what the shared items must equal: the plain loop.
func (p *sharedProbe) serial(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		in, _ := p.prepare(i)
		out[i], _ = p.finish(i, in)
	}
	return out
}

// callAll calls get from callers goroutines at once and returns what
// each got, failing the test if any call is still blocked at deadline.
func callAll(t *testing.T, callers int, get func() ([]uint64, error)) ([][]uint64, []error) {
	t.Helper()
	outs, errs := make([][]uint64, callers), make([]error, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			outs[c], errs[c] = get()
		}()
	}
	start.Done()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("shared items: a caller is still blocked")
	}
	return outs, errs
}

func TestSharedItemsMatchSerialLoop(t *testing.T) {
	const n = 64
	want := newSharedProbe().serial(n)
	for _, callers := range []int{1, 2, 8} {
		p := newSharedProbe()
		get := Shared(n, p.prepare, p.finish)
		outs, errs := callAll(t, callers, get)
		for c := range outs {
			if errs[c] != nil {
				t.Fatalf("callers=%d: caller %d: %v", callers, c, errs[c])
			}
			if fmt.Sprint(outs[c]) != fmt.Sprint(want) {
				t.Fatalf("callers=%d: caller %d got %v, want %v", callers, c, outs[c], want)
			}
		}
		if len(p.prepared) != n {
			t.Fatalf("callers=%d: prepare called %d times, want %d", callers, len(p.prepared), n)
		}
		for k, i := range p.prepared {
			if i != k {
				t.Fatalf("callers=%d: prepare call %d was for index %d", callers, k, i)
			}
		}
		// With one caller the bound is 1: prepare(i+1) waits for
		// finish(i), the Parallel: 1 schedule of the loop it replaces.
		if bound := int64(2*callers - 1); p.maxAlive.Load() > bound {
			t.Errorf("callers=%d: %d inputs alive at once, bound %d", callers, p.maxAlive.Load(), bound)
		}
		// A later call returns the same items without preparing again.
		again, err := get()
		if err != nil || fmt.Sprint(again) != fmt.Sprint(want) || len(p.prepared) != n {
			t.Errorf("callers=%d: repeat call redid work or changed the items", callers)
		}
	}
}

func TestSharedItemsFailLowestIndex(t *testing.T) {
	cases := []struct {
		name  string
		set   func(p *sharedProbe)
		want  string
		limit int // prepare is never called past this index
	}{
		{"prepare error", func(p *sharedProbe) { p.failPrepare = 5 }, "prepare 5 failed", 5},
		// A finish failure may land after later items were prepared, so
		// its limit is the last index.
		{"finish error", func(p *sharedProbe) { p.failFinish = 5 }, "finish 5 failed", 39},
		{"prepare panic", func(p *sharedProbe) { p.panicPrepare = 5 }, "shared item 5: panic: boom 5", 5},
		{"finish panic", func(p *sharedProbe) { p.panicFinish = 5 }, "shared item 5: panic: boom 5", 39},
		{"finish below prepare", func(p *sharedProbe) { p.failPrepare, p.failFinish = 9, 4 }, "finish 4 failed", 9},
		{"panic below error", func(p *sharedProbe) { p.panicFinish, p.failPrepare = 3, 6 }, "shared item 3: panic: boom 3", 6},
		{"first item", func(p *sharedProbe) { p.failFinish, p.panicPrepare = 0, 1 }, "finish 0 failed", 1},
	}
	for _, tc := range cases {
		for _, parallel := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, parallel), func(t *testing.T) {
				p := newSharedProbe()
				tc.set(p)
				get := Shared(40, p.prepare, p.finish)
				const points = 6
				got := make([]error, points)
				s := Scenario{ID: "F", Table: "f", Columns: []string{"n"},
					Points: func() ([]Point, error) {
						var pts []Point
						for k := 0; k < points; k++ {
							pts = append(pts, Point{Label: fmt.Sprint(k), Run: func(context.Context) (Row, error) {
								items, err := get()
								got[k] = err
								return R(len(items)), err
							}})
						}
						return pts, nil
					}}
				done := make(chan error, 1)
				go func() {
					_, err := Run(context.Background(), s, Options{Parallel: parallel})
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Fatal("Run succeeded")
					}
				case <-time.After(20 * time.Second):
					t.Fatal("Run hung")
				}
				for k, err := range got {
					if err == nil || err.Error() != tc.want {
						t.Errorf("point %d got %v, want %q", k, err, tc.want)
					}
				}
				for k, i := range p.prepared {
					if i != k || i > tc.limit {
						t.Fatalf("prepare calls %v: want 0, 1, … up to at most %d", p.prepared, tc.limit)
					}
				}
			})
		}
	}
}
