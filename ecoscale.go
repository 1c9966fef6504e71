// Package ecoscale is a full software reproduction of the system
// described in "ECOSCALE: Reconfigurable Computing and Runtime System for
// Future Exascale Systems" (Mavroidis et al., DATE 2016): a hierarchical
// UNIMEM partitioned-global-address-space machine whose Workers carry
// reconfigurable accelerators shared across the PGAS domain (UNILOGIC),
// programmed through an OpenCL-style environment with an HLS flow and
// scheduled by a model-driven runtime.
//
// The package is a thin facade over the internal substrates. Typical use:
//
//	cfg := ecoscale.DefaultConfig(8, 4) // 8 workers per compute node, 4 nodes
//	m := ecoscale.New(cfg)
//	inst, err := m.DeployKernel(src, ecoscale.DefaultDirectives(), 0)
//	...
//	m.Run()
//	fmt.Println(m.Report())
//
// For the OpenCL-style host API see NewPlatform; for direct access to
// the substrates (UNIMEM space, fabric, schedulers) use the fields of
// Machine.
package ecoscale

import (
	"ecoscale/internal/core"
	"ecoscale/internal/hls"
	"ecoscale/internal/ocl"
	"ecoscale/internal/rts"
	"ecoscale/internal/unilogic"
	"ecoscale/internal/workload"
)

// Config describes the machine to build; see DefaultConfig.
type Config = core.Config

// Machine is a built ECOSCALE system: engine, topology, interconnect,
// UNIMEM space, per-Worker fabrics and schedulers, the UNILOGIC domain,
// the work-stealing cluster and the reconfiguration daemon.
type Machine = core.Machine

// Directives are the HLS synthesis knobs (unroll, memory ports, unit
// sharing, pipelining).
type Directives = hls.Directives

// Kernel is a parsed kernel.
type Kernel = hls.Kernel

// Impl is a synthesized hardware implementation point.
type Impl = hls.Impl

// Workload couples a kernel source with generators and a golden model.
type Workload = workload.Workload

// DefaultConfig returns a machine with workersPerCN Workers in each of
// computeNodes Compute Nodes and sensible defaults everywhere else.
func DefaultConfig(workersPerCN, computeNodes int) Config {
	return core.DefaultConfig(workersPerCN, computeNodes)
}

// New builds a machine.
func New(cfg Config) *Machine { return core.New(cfg) }

// DefaultDirectives returns the baseline synthesis directives.
func DefaultDirectives() Directives { return hls.DefaultDirectives() }

// ParseKernel parses kernel source in the OpenCL-style kernel language.
func ParseKernel(src string) (*Kernel, error) { return hls.Parse(src) }

// Synthesize produces a hardware implementation of a kernel.
func Synthesize(k *Kernel, dir Directives) (*Impl, error) { return hls.Synthesize(k, dir) }

// Explore runs the HLS design-space exploration and returns the Pareto
// frontier of implementations at the reference bindings.
var Explore = hls.Explore

// Kernels returns the built-in workload library (vecadd, dot, matmul,
// stencil2d, montecarlo, cartsplit, nbody, reduce, fir).
func Kernels() []Workload { return workload.Registry() }

// KernelByName returns a built-in workload by name.
func KernelByName(name string) (Workload, error) { return workload.ByName(name) }

// NewPlatform returns the OpenCL-style host API for a machine.
func NewPlatform(m *Machine) *ocl.Platform { return ocl.NewPlatform(m) }

// Scheduling policies for Machine.SetPolicy and Machine.Sched(w).Policy.
var (
	// PolicyCPU always executes in software.
	PolicyCPU rts.Policy = rts.PolicyCPU{}
	// PolicyHW always offloads when an instance exists.
	PolicyHW rts.Policy = rts.PolicyHW{}
	// PolicyModel is the paper's model-driven dispatcher.
	PolicyModel rts.Policy = rts.PolicyModel{}
	// PolicyOracle dispatches with perfect timing knowledge.
	PolicyOracle rts.Policy = rts.PolicyOracle{}
)

// Accelerator-sharing policies for Config.Sharing.
const (
	// Shared is the UNILOGIC policy across the whole machine.
	Shared = unilogic.Shared
	// SharedCN scopes UNILOGIC sharing to each Compute Node (the
	// paper-faithful PGAS-domain boundary).
	SharedCN = unilogic.SharedCN
	// Private restricts Workers to their own fabric.
	Private = unilogic.Private
)

// Work-stealing strategies for Config.Balance.
const (
	// NoBalance disables stealing.
	NoBalance = rts.NoBalance
	// Polling queries every Worker before stealing.
	Polling = rts.Polling
	// Lazy infers load from the local queue and probes one neighbour.
	Lazy = rts.Lazy
)
