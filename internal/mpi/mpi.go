// Package mpi provides the message-passing layer ECOSCALE uses between
// Compute Nodes (§4.1: "MPI is used for communication between Compute
// Nodes via CPU-based routers following the application topology"; §4.4:
// "The programming model for expressing hierarchical data partitioning
// will start from the widely used MPI-3.0 standard, leveraging the new
// topology abstractions").
//
// It implements one rank per Worker, tagged point-to-point messaging and
// the binomial-tree collectives (broadcast, reduce, allreduce) whose
// traffic travels on the simulated interconnect. The ablation A3 runs
// Allreduce; nothing else in the simulator uses the package.
package mpi

import (
	"fmt"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
)

// Message is a delivered point-to-point message.
type Message struct {
	Source int
	Tag    int
	Data   []float64
}

type pendingRecv struct {
	src, tag int
	fn       func(Message)
}

type rankState struct {
	inbox []Message
	recvs []pendingRecv
}

// Comm is the world communicator: rank r is Worker r of the underlying
// machine.
type Comm struct {
	net   *noc.Network
	state []*rankState
}

// st returns rank's mailbox state, materializing it on first use.
func (c *Comm) st(rank int) *rankState {
	s := c.state[rank]
	if s == nil {
		s = &rankState{}
		c.state[rank] = s
	}
	return s
}

// WorldComm binds rank i to Worker i for every Worker. Rank mailboxes
// materialize on first touch, so a world communicator over 100k Workers
// costs one nil pointer per rank until ranks talk.
func WorldComm(net *noc.Network) *Comm {
	return &Comm{net: net, state: make([]*rankState, net.Topology().NumWorkers())}
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.state) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, len(c.state)))
	}
}

// Send transmits data from rank src to rank dst with a tag; done fires
// at delivery (eager protocol).
func (c *Comm) Send(src, dst, tag int, data []float64, done func()) {
	c.checkRank(src)
	c.checkRank(dst)
	msg := Message{Source: src, Tag: tag, Data: append([]float64(nil), data...)}
	c.net.Send(src, dst, 8*len(data)+16, noc.Store, func() {
		c.deliver(dst, msg)
		if done != nil {
			done()
		}
	})
}

func (c *Comm) deliver(dst int, msg Message) {
	st := c.st(dst)
	for i, pr := range st.recvs {
		if pr.src == msg.Source && pr.tag == msg.Tag {
			st.recvs = append(st.recvs[:i], st.recvs[i+1:]...)
			pr.fn(msg)
			return
		}
	}
	st.inbox = append(st.inbox, msg)
}

// Recv registers a receive at rank for the message from src with tag;
// fn runs when the message arrives (or immediately if it is already
// queued).
func (c *Comm) Recv(rank, src, tag int, fn func(Message)) {
	c.checkRank(rank)
	st := c.st(rank)
	for i, m := range st.inbox {
		if src == m.Source && tag == m.Tag {
			st.inbox = append(st.inbox[:i], st.inbox[i+1:]...)
			fn(m)
			return
		}
	}
	st.recvs = append(st.recvs, pendingRecv{src: src, tag: tag, fn: fn})
}

// Op is a reduction operator.
type Op func(a, b float64) float64

// OpSum is the element-wise sum.
var OpSum Op = func(a, b float64) float64 { return a + b }

const collectiveTag = -1000

// Bcast distributes root's data to all ranks along a binomial tree; done
// receives the per-rank copies.
func (c *Comm) Bcast(root int, data []float64, done func(perRank [][]float64)) {
	c.checkRank(root)
	p := len(c.state)
	out := make([][]float64, p)
	out[root] = append([]float64(nil), data...)
	if p == 1 {
		if done != nil {
			done(out)
		}
		return
	}
	// Binomial tree in the rank space rotated so root is virtual rank 0.
	real := func(v int) int { return (v + root) % p }
	var phase func(k int)
	phase = func(k int) {
		if 1<<k >= p {
			if done != nil {
				done(out)
			}
			return
		}
		var pairs [][2]int
		for v := 0; v < p; v++ {
			if v < 1<<k && v+(1<<k) < p {
				pairs = append(pairs, [2]int{real(v), real(v + (1 << k))})
			}
		}
		wg := sim.NewWaitGroup(c.net.Engine(), len(pairs))
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			c.Recv(dst, src, collectiveTag-100-k, func(m Message) {
				out[dst] = m.Data
				wg.DoneOne()
			})
			c.Send(src, dst, collectiveTag-100-k, out[src], nil)
		}
		wg.Wait(func() { phase(k + 1) })
	}
	phase(0)
}

// Reduce combines per-rank contributions element-wise with op at root;
// done receives the reduction. contrib[r] is rank r's vector; all must
// share a length.
func (c *Comm) Reduce(root int, contrib [][]float64, op Op, done func(result []float64)) {
	c.checkRank(root)
	p := len(c.state)
	if len(contrib) != p {
		panic(fmt.Sprintf("mpi: %d contributions for %d ranks", len(contrib), p))
	}
	width := len(contrib[0])
	acc := make([][]float64, p)
	for r := range contrib {
		if len(contrib[r]) != width {
			panic("mpi: ragged reduce contributions")
		}
		acc[r] = append([]float64(nil), contrib[r]...)
	}
	if p == 1 {
		if done != nil {
			done(acc[0])
		}
		return
	}
	real := func(v int) int { return (v + root) % p }
	// Reverse binomial tree: highest phase first.
	maxK := 0
	for 1<<(maxK+1) < p {
		maxK++
	}
	var phase func(k int)
	phase = func(k int) {
		if k < 0 {
			if done != nil {
				done(acc[root])
			}
			return
		}
		var pairs [][2]int
		for v := 0; v < p; v++ {
			if v < 1<<k && v+(1<<k) < p {
				pairs = append(pairs, [2]int{real(v + (1 << k)), real(v)}) // child → parent
			}
		}
		wg := sim.NewWaitGroup(c.net.Engine(), len(pairs))
		for _, pr := range pairs {
			src, dst := pr[0], pr[1]
			c.Recv(dst, src, collectiveTag-200-k, func(m Message) {
				for i := range acc[dst] {
					acc[dst][i] = op(acc[dst][i], m.Data[i])
				}
				wg.DoneOne()
			})
			c.Send(src, dst, collectiveTag-200-k, acc[src], nil)
		}
		wg.Wait(func() { phase(k - 1) })
	}
	phase(maxK)
}

// Allreduce is Reduce to rank 0 followed by Bcast; done receives each
// rank's (identical) result.
func (c *Comm) Allreduce(contrib [][]float64, op Op, done func(perRank [][]float64)) {
	c.Reduce(0, contrib, op, func(result []float64) {
		c.Bcast(0, result, done)
	})
}
