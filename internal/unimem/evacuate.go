package unimem

import (
	"sort"

	"ecoscale/internal/noc"
)

// State evacuation after a Worker death. UNIMEM's partitioned ownership
// makes this tractable: the dead Worker's pages are an enumerable set,
// and the replication layer (replica.go) doubles as recovery redundancy —
// a page replicated before the failure restores from the replica nearest
// the evacuation target instead of the failed Worker's DRAM. Pages with
// no replica stream out of the dead Worker's DRAM directly: UNIMEM memory
// is a network citizen that survives the death of its compute side, which
// is precisely the decoupling the architecture argues for.

// PagesOwnedBy returns the page numbers whose DRAM home is worker w, in
// ascending page order (deterministic regardless of map iteration).
func (s *Space) PagesOwnedBy(w int) []uint64 {
	var out []uint64
	for no, p := range s.pages {
		if p.Owner() == w {
			out = append(out, no)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvacuateWorker migrates every page owned by from into to's DRAM, one
// page at a time in ascending page order (sequential: the evacuation DMA
// engine is a single context, and a dying node's state should not flood
// the interconnect). Each page's bytes come from the replica holder
// nearest the destination when one exists, otherwise from the failed
// Worker's DRAM. done receives the page and byte counts moved.
func (s *Space) EvacuateWorker(from, to int, done func(pages int, bytes int64)) {
	if to < 0 || to >= len(s.workers) {
		panic("unimem: bad evacuation target")
	}
	pages := s.PagesOwnedBy(from)
	if from == to || len(pages) == 0 {
		if done != nil {
			done(0, 0)
		}
		return
	}
	i := 0
	var step func()
	step = func() {
		if i == len(pages) {
			if done != nil {
				done(len(pages), int64(len(pages))*int64(s.cfg.PageBytes))
			}
			return
		}
		no := pages[i]
		i++
		s.evacuatePage(no, to, step)
	}
	step()
}

// evacuatePage moves one page to a new owner like MigratePage, but the
// DMA source may be a replica holder rather than the (possibly dead) old
// owner, and a replica already in the destination's DRAM is promoted in
// place — one local DRAM write, no wire traffic.
func (s *Space) evacuatePage(pageNo uint64, to int, done func()) {
	p := s.pages[pageNo]
	addr := pageNo * uint64(s.cfg.PageBytes)
	src := p.Owner()
	if s.reps != nil {
		if r, ok := s.reps[pageNo]; ok && len(r.holders) > 0 {
			if r.holders[to] {
				src = to
			} else {
				bestD := s.net.Topology().HopDistance(to, src)
				for _, h := range sortedHolders(r.holders) {
					if d := s.net.Topology().HopDistance(to, h); d < bestD {
						src, bestD = h, d
					}
				}
			}
		}
	}
	old := p.Owner()
	s.count(ctrEvacuations)
	start := s.Engine().Now()
	finish := func() {
		p.setHome(to)
		// The destination's DRAM copy subsumes any replica it held.
		if s.reps != nil {
			if r, ok := s.reps[pageNo]; ok {
				delete(r.holders, to)
			}
		}
		s.observeCoh(to, "evacuate", start, int64(s.cfg.PageBytes))
		if done != nil {
			done()
		}
	}
	// Flush any live third-party cacher toward the old owner first, like
	// MigratePage — the caching right must be whole before it moves.
	s.SetCacher(addr, old, func() {
		if src == to {
			s.wm(to).dram.Access(s.cfg.PageBytes, finish)
			return
		}
		s.net.DMATransfer(src, to, s.cfg.PageBytes, noc.DefaultDMAConfig(), func() {
			s.wm(to).dram.Access(s.cfg.PageBytes, finish)
		})
	})
}
