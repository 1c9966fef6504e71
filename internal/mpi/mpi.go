// Package mpi provides the message-passing layer ECOSCALE uses between
// Compute Nodes (§4.1: "MPI is used for communication between Compute
// Nodes via CPU-based routers following the application topology"; §4.4:
// "The programming model for expressing hierarchical data partitioning
// will start from the widely used MPI-3.0 standard, leveraging the new
// topology abstractions").
//
// It implements ranks bound to Workers, tagged point-to-point messaging
// with wildcard receive, tree-structured collectives (barrier, broadcast,
// reduce, allreduce, alltoall) whose traffic travels on the simulated
// interconnect, and MPI-3-style Cartesian and graph topology helpers. The
// ablation A3 runs Allreduce, and core.Machine exposes a world
// communicator as Machine.Comm; nothing else in the simulator uses the
// package.
package mpi

import (
	"fmt"

	"ecoscale/internal/noc"
	"ecoscale/internal/sim"
)

// AnySource and AnyTag are receive wildcards.
const (
	AnySource = -1
	AnyTag    = -1
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

// Comm is a communicator: an ordered set of ranks, each bound to a
// Worker of the underlying machine.
type Comm struct {
	net   *noc.Network
	ranks []int // rank → worker
	state []*rankState

	sends uint64
	bytes uint64
}

// NewComm creates a communicator; ranks[i] is the Worker hosting rank i.
func NewComm(net *noc.Network, ranks []int) *Comm {
	if len(ranks) == 0 {
		panic("mpi: communicator needs at least one rank")
	}
	workers := net.Topology().NumWorkers()
	for i, w := range ranks {
		if w < 0 || w >= workers {
			panic(fmt.Sprintf("mpi: rank %d bound to invalid worker %d", i, w))
		}
	}
	// Rank mailboxes materialize on first touch, so a world communicator
	// over 100k Workers costs one nil pointer per rank until ranks talk.
	return &Comm{net: net, ranks: append([]int(nil), ranks...), state: make([]*rankState, len(ranks))}
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

// WorldComm binds rank i to Worker i for every Worker.
func WorldComm(net *noc.Network) *Comm {
	n := net.Topology().NumWorkers()
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return NewComm(net, ranks)
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// Worker returns the Worker hosting a rank.
func (c *Comm) Worker(rank int) int { return c.ranks[rank] }

// Sends returns the total point-to-point message count (including those
// issued by collectives).
func (c *Comm) Sends() uint64 { return c.sends }

// Bytes returns total payload bytes sent.
func (c *Comm) Bytes() uint64 { return c.bytes }

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, len(c.ranks)))
	}
}

// Send transmits data from rank src to rank dst with a tag; done fires
// at delivery (eager protocol).
func (c *Comm) Send(src, dst, tag int, data []float64, done func()) {
	c.checkRank(src)
	c.checkRank(dst)
	c.sends++
	payload := 8 * len(data)
	c.bytes += uint64(payload)
	msg := Message{Source: src, Tag: tag, Data: append([]float64(nil), data...)}
	c.net.Send(c.ranks[src], c.ranks[dst], payload+16, noc.Store, func() {
		c.deliver(dst, msg)
		if done != nil {
			done()
		}
	})
}

func (c *Comm) deliver(dst int, msg Message) {
	st := c.st(dst)
	for i, pr := range st.recvs {
		if (pr.src == AnySource || pr.src == msg.Source) && (pr.tag == AnyTag || pr.tag == msg.Tag) {
			st.recvs = append(st.recvs[:i], st.recvs[i+1:]...)
			pr.fn(msg)
			return
		}
	}
	st.inbox = append(st.inbox, msg)
}

// Recv registers a receive at rank for a matching message (wildcards
// AnySource/AnyTag allowed); fn runs when the message arrives (or
// immediately if it is already queued).
func (c *Comm) Recv(rank, src, tag int, fn func(Message)) {
	c.checkRank(rank)
	st := c.st(rank)
	for i, m := range st.inbox {
		if (src == AnySource || src == m.Source) && (tag == AnyTag || tag == m.Tag) {
			st.inbox = append(st.inbox[:i], st.inbox[i+1:]...)
			fn(m)
			return
		}
	}
	st.recvs = append(st.recvs, pendingRecv{src: src, tag: tag, fn: fn})
}

// SendRecv performs a simultaneous exchange between two ranks (the halo
// pattern).
func (c *Comm) SendRecv(a, b, tag int, dataA, dataB []float64, done func(atA, atB Message)) {
	var gotA, gotB *Message
	check := func() {
		if gotA != nil && gotB != nil && done != nil {
			done(*gotA, *gotB)
		}
	}
	c.Recv(a, b, tag, func(m Message) { gotA = &m; check() })
	c.Recv(b, a, tag, func(m Message) { gotB = &m; check() })
	c.Send(a, b, tag, dataA, nil)
	c.Send(b, a, tag, dataB, nil)
}

// Op is a reduction operator.
type Op func(a, b float64) float64

// Built-in reduction operators.
var (
	OpSum  Op = func(a, b float64) float64 { return a + b }
	OpProd Op = func(a, b float64) float64 { return a * b }
	OpMax  Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

const collectiveTag = -1000

// Barrier synchronizes all ranks with a dissemination barrier
// (ceil(log2 P) rounds); done fires when every rank has passed it.
func (c *Comm) Barrier(done func()) {
	p := len(c.ranks)
	if p == 1 {
		if done != nil {
			done()
		}
		return
	}
	rounds := 0
	for 1<<rounds < p {
		rounds++
	}
	var runRound func(k int)
	runRound = func(k int) {
		if k == rounds {
			if done != nil {
				done()
			}
			return
		}
		wg := sim.NewWaitGroup(c.net.Engine(), p)
		for r := 0; r < p; r++ {
			dst := (r + (1 << k)) % p
			c.Send(r, dst, collectiveTag-k, nil, nil)
			c.Recv(dst, (dst-(1<<k)%p+p)%p, collectiveTag-k, func(Message) { wg.DoneOne() })
		}
		wg.Wait(func() { runRound(k + 1) })
	}
	runRound(0)
}

// Bcast distributes root's data to all ranks along a binomial tree; done
// receives the per-rank copies.
func (c *Comm) Bcast(root int, data []float64, done func(perRank [][]float64)) {
	c.checkRank(root)
	p := len(c.ranks)
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
	p := len(c.ranks)
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

// Alltoall delivers send[i][j] (rank i's message for rank j) to
// recv[j][i]; done receives the transposed matrix.
func (c *Comm) Alltoall(send [][][]float64, done func(recv [][][]float64)) {
	p := len(c.ranks)
	if len(send) != p {
		panic("mpi: alltoall needs one row per rank")
	}
	recv := make([][][]float64, p)
	for i := range recv {
		recv[i] = make([][]float64, p)
	}
	total := 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				total++
			} else {
				recv[i][i] = send[i][i]
			}
		}
	}
	if total == 0 {
		if done != nil {
			done(recv)
		}
		return
	}
	wg := sim.NewWaitGroup(c.net.Engine(), total)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			i, j := i, j
			c.Recv(j, i, collectiveTag-300, func(m Message) {
				recv[j][i] = m.Data
				wg.DoneOne()
			})
			c.Send(i, j, collectiveTag-300, send[i][j], nil)
		}
	}
	wg.Wait(func() {
		if done != nil {
			done(recv)
		}
	})
}
