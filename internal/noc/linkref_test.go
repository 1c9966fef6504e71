package noc

import (
	"fmt"

	"ecoscale/internal/sim"
	"ecoscale/internal/topo"
)

// refWalk preserves the hop walk that ran every message over generic
// sim.Resource links: each link a Resource named on first use, each
// message a pooled op holding a path slice built up front, and each hop
// one UseCall. The differential test and FuzzLinkQueue drive it and the
// production walk with the same traffic and require identical delivery
// times, event counts and LinkStats rows.
//
// It must stay semantically frozen. Do not optimize it.
type refWalk struct {
	eng      *sim.Engine
	tree     *topo.Tree
	cfg      Config
	links    [][]*sim.Resource
	sendFree *refSendOp
}

func newRefWalk(eng *sim.Engine, t *topo.Tree, cfg Config) *refWalk {
	if cfg.LinkCapacity <= 0 {
		cfg.LinkCapacity = 1
	}
	w := &refWalk{eng: eng, tree: t, cfg: cfg}
	w.links = make([][]*sim.Resource, t.MaxHops())
	for l := range w.links {
		w.links[l] = make([]*sim.Resource, 2*t.NumWorkers()/t.GroupSize(l))
	}
	return w
}

func (w *refWalk) link(level, group, dir int) *sim.Resource {
	slot := &w.links[level][2*group+dir]
	if *slot == nil {
		*slot = sim.NewResource(w.eng, fmt.Sprintf("link-l%d-g%d-d%d", level, group, dir), w.cfg.LinkCapacity)
	}
	return *slot
}

func (w *refWalk) linkStats(now sim.Time) []LinkStat {
	var out []LinkStat
	for level, row := range w.links {
		for i, r := range row {
			if r == nil {
				continue
			}
			out = append(out, LinkStat{
				Level: level, Group: i / 2, Dir: i % 2, Name: r.Name(),
				Utilization: r.Utilization(now), Waited: r.TotalWait(),
				Grants: r.Acquisitions(), MaxQueue: r.MaxQueue(),
			})
		}
	}
	return out
}

type refHop struct {
	link *sim.Resource
	hold sim.Time
}

func (w *refWalk) pathLinksInto(buf []refHop, src, dst, hops, size int) []refHop {
	buf = buf[:0]
	for l := 0; l < hops; l++ {
		lc := w.cfg.Levels[l]
		hold := lc.HopLatency + sim.Time(float64(size)/lc.BytesPerNs*float64(sim.Nanosecond))
		buf = append(buf, refHop{link: w.link(l, src/w.tree.GroupSize(l), 0), hold: hold})
	}
	for l := hops - 1; l >= 0; l-- {
		buf = append(buf, refHop{link: w.link(l, dst/w.tree.GroupSize(l), 1), hold: buf[l].hold})
	}
	return buf
}

type refSendOp struct {
	w    *refWalk
	path []refHop
	i    int
	fn   func(any)
	arg  any
	next *refSendOp
}

func refSendStep(a any) {
	op := a.(*refSendOp)
	if op.i == len(op.path) {
		w, fn, arg := op.w, op.fn, op.arg
		*op = refSendOp{path: op.path[:0], next: w.sendFree}
		w.sendFree = op
		if fn != nil {
			fn(arg)
		}
		return
	}
	h := op.path[op.i]
	op.i++
	h.link.UseCall(h.hold, refSendStep, op)
}

func (w *refWalk) sendCall(src, dst, size int, fn func(any), arg any) {
	if src == dst {
		if fn != nil {
			fn(arg)
		}
		return
	}
	op := w.sendFree
	if op != nil {
		w.sendFree = op.next
		op.next = nil
	} else {
		op = &refSendOp{}
	}
	op.w, op.fn, op.arg, op.i = w, fn, arg, 0
	op.path = w.pathLinksInto(op.path, src, dst, w.tree.LCALevel(src, dst), size)
	refSendStep(op)
}

func (w *refWalk) flapLink(worker, level int, down sim.Time) bool {
	if level < 0 || level >= w.tree.MaxHops() || down <= 0 {
		return false
	}
	group := w.tree.GroupOf(level, worker)
	for dir := 0; dir < 2; dir++ {
		r := w.link(level, group, dir)
		for i := 0; i < r.Capacity(); i++ {
			r.Use(down, nil)
		}
	}
	return true
}
