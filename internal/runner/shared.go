package runner

import (
	"fmt"
	"sync"
)

// Shared returns a function that computes n items of set-up several
// points of one scenario need, and returns them in index order. Each
// item is made in two steps: prepare(i) runs for i = 0…n−1 in index
// order, one call at a time (it may draw from one RNG), and finish(i, p)
// turns a prepared input into the item on whichever caller takes it.
//
// The work is done by the callers: every point that calls the returned
// function prepares and finishes pending items until all n are done,
// instead of idling while another point computes them. No goroutine is
// started, so with one caller (Parallel: 1) every item runs on the
// calling goroutine in index order, prepare(i) then finish(i). A caller
// prepares the next item only while fewer prepared-but-untaken inputs
// wait than there are callers inside, and each input is dropped once
// finish has used it, so at most 2c−1 inputs are alive with c callers.
//
// Once all items are done (or failed), later calls return the same
// result without work. If prepare or finish fails or panics, every
// caller gets the error of the lowest failing index, as a serial loop
// would report it; items past it are not prepared.
func Shared[P, T any](n int, prepare func(i int) (P, error), finish func(i int, in P) (T, error)) func() ([]T, error) {
	s := &shared[P, T]{prepare: prepare, finish: finish,
		in: make([]P, n), out: make([]T, n), done: make([]bool, n), stop: n}
	s.cond.L = &s.mu
	return s.get
}

type shared[P, T any] struct {
	prepare func(i int) (P, error)
	finish  func(i int, in P) (T, error)

	mu        sync.Mutex
	cond      sync.Cond
	inside    int  // callers inside get
	preparing bool // prepare(prepared) is running
	prepared  int  // items [0, prepared) have their input
	taken     int  // items [0, taken) were handed to finish
	settled   int  // items [0, settled) are finished
	stop      int  // lowest failing index, n while none failed
	err       error
	in        []P // prepared inputs; zeroed once taken
	out       []T
	done      []bool
}

func (s *shared[P, T]) get() ([]T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inside++
	defer func() { s.inside-- }()
	for s.settled < s.stop {
		switch {
		case !s.preparing && s.prepared < s.stop && s.prepared-s.taken < s.inside:
			i := s.prepared
			s.preparing = true
			s.mu.Unlock()
			in, err := guard(i, func() (P, error) { return s.prepare(i) })
			s.mu.Lock()
			s.preparing = false
			if err != nil {
				s.fail(i, err)
			} else if i < s.stop {
				s.in[i] = in
				s.prepared++
			}
		case s.taken < min(s.prepared, s.stop):
			i := s.taken
			in := s.in[i]
			var zero P
			s.in[i] = zero
			s.taken++
			s.mu.Unlock()
			out, err := guard(i, func() (T, error) { return s.finish(i, in) })
			s.mu.Lock()
			if err != nil {
				s.fail(i, err)
			} else {
				s.out[i] = out
			}
			s.done[i] = true
			for s.settled < len(s.done) && s.done[s.settled] {
				s.settled++
			}
		default:
			s.cond.Wait()
			continue
		}
		s.cond.Broadcast()
	}
	s.in = nil // inputs past a failed item are never taken
	if s.err != nil {
		return nil, s.err
	}
	return s.out, nil
}

// fail records item i's error if it is the lowest so far.
func (s *shared[P, T]) fail(i int, err error) {
	if i < s.stop {
		s.stop, s.err = i, err
	}
}

// guard runs f, turning a panic into item i's error.
func guard[R any](i int, f func() (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("shared item %d: panic: %v", i, p)
		}
	}()
	return f()
}
