package unimem

import (
	"fmt"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
)

// Read-only page replication (§4.4: the OpenCL runtime performs
// "implicit data allocation, migration and replication between
// workers"). A page may be replicated into other Workers' DRAM while it
// is write-protected; reads then resolve against the nearest replica.
// The one-owner *cacheability* rule is untouched — replicas are DRAM
// copies, each cacheable only at its holder, which keeps the protocol
// coherence-free. A write to a replicated page must first tear the
// replicas down (the writer pays the invalidation, not a global
// protocol), which is the right trade for read-mostly data like lookup
// tables and broadcast operands.

type replicaState struct {
	holders map[int]bool // workers with a DRAM copy (excluding the owner)
}

// replicas is lazily attached to Space.
func (s *Space) replicaOf(pageNo uint64) *replicaState {
	if s.reps == nil {
		s.reps = map[uint64]*replicaState{}
	}
	r, ok := s.reps[pageNo]
	if !ok {
		r = &replicaState{holders: map[int]bool{}}
		s.reps[pageNo] = r
	}
	return r
}

// Replicate copies the page containing addr into worker w's DRAM (a DMA
// transfer), after which reads by w are local. Replicating at the owner
// is a no-op. done fires when the copy is usable.
func (s *Space) Replicate(addr uint64, w int, done func()) {
	p := s.pageOf(addr)
	if w < 0 || w >= len(s.workers) {
		panic(fmt.Sprintf("unimem: bad replica holder %d", w))
	}
	pageNo := addr / uint64(s.cfg.PageBytes)
	r := s.replicaOf(pageNo)
	if w == p.Owner() || r.holders[w] {
		if done != nil {
			done()
		}
		return
	}
	s.count(ctrReplications)
	s.net.DMATransfer(p.Owner(), w, s.cfg.PageBytes, noc.DefaultDMAConfig(), func() {
		s.wm(w).dram.Access(s.cfg.PageBytes, func() {
			r.holders[w] = true
			if done != nil {
				done()
			}
		})
	})
}

// Replicas returns how many workers (excluding the owner) hold a copy of
// the page containing addr.
func (s *Space) Replicas(addr uint64) int {
	if s.reps == nil {
		return 0
	}
	r, ok := s.reps[addr/uint64(s.cfg.PageBytes)]
	if !ok {
		return 0
	}
	return len(r.holders)
}

// readSource returns the worker whose DRAM should service a read of addr
// by node: node itself when it holds a replica, else the nearest holder
// or the owner.
func (s *Space) readSource(node int, addr uint64) int {
	p := s.pageOf(addr)
	if s.reps == nil {
		return p.Owner()
	}
	r, ok := s.reps[addr/uint64(s.cfg.PageBytes)]
	if !ok || len(r.holders) == 0 {
		return p.Owner()
	}
	if r.holders[node] {
		return node
	}
	best := p.Owner()
	bestD := s.net.Topology().HopDistance(node, p.Owner())
	for _, h := range sortedHolders(r.holders) {
		if d := s.net.Topology().HopDistance(node, h); d < bestD {
			best, bestD = h, d
		}
	}
	return best
}

func sortedHolders(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// dropReplicas tears down every replica of the page containing addr
// (the writer-pays invalidation), then calls done. One message per
// holder plus an ack — cost proportional to the replicas the caller
// created, not to the machine size.
func (s *Space) dropReplicas(node int, addr uint64, done func()) {
	pageNo := addr / uint64(s.cfg.PageBytes)
	if s.reps == nil {
		done()
		return
	}
	r, ok := s.reps[pageNo]
	if !ok || len(r.holders) == 0 {
		done()
		return
	}
	holders := sortedHolders(r.holders)
	s.count(ctrReplicaInvalidations)
	wg := sim.NewWaitGroup(s.Engine(), len(holders))
	for _, h := range holders {
		h := h
		s.net.Send(node, h, s.cfg.CtrlBytes, noc.Sync, func() {
			s.net.Send(h, node, s.cfg.CtrlBytes, noc.Sync, wg.DoneOne)
		})
	}
	for k := range r.holders {
		delete(r.holders, k)
	}
	wg.Wait(done)
}

// ReplicatedRead is Read that resolves against the nearest replica. It
// is a separate entry point so the base Read keeps the paper's exact
// UNIMEM semantics; the OpenCL runtime uses this one when the buffer was
// replicated.
func (s *Space) ReplicatedRead(node int, addr uint64, size int, done func(data []byte)) {
	s.checkSpan(addr, size)
	p := s.pageOf(addr)
	src := s.readSource(node, addr)
	if src == p.Owner() {
		s.Read(node, addr, size, done)
		return
	}
	deliver := func() {
		if done != nil {
			off := addr % uint64(s.cfg.PageBytes)
			buf := make([]byte, size)
			copy(buf, p.data[off:])
			done(buf)
		}
	}
	if src == node {
		s.count(ctrReplicaLocalReads)
		s.wm(node).dram.Access(size, deliver)
		return
	}
	s.count(ctrReplicaRemoteReads)
	s.net.Send(node, src, s.cfg.CtrlBytes, noc.Load, func() {
		s.wm(src).dram.Access(size, func() {
			s.net.Send(src, node, size, noc.Load, deliver)
		})
	})
}

// ReplicatedWrite performs a write that first invalidates every replica
// of the page, then proceeds as a normal UNIMEM write.
func (s *Space) ReplicatedWrite(node int, addr uint64, data []byte, done func()) {
	s.checkSpan(addr, len(data))
	s.dropReplicas(node, addr, func() {
		s.Write(node, addr, data, done)
	})
}
