// Package smmu models the dual-stage System MMU of the ECOSCALE Worker
// (Fig. 4): "A dual stage I/O MMU, such as the ARM SMMU ... can resolve
// this problem by translating virtual addresses to physical addresses in
// hardware. Using an I/O MMU the proposed architecture will allow
// 'user-level access' to the reconfigurable accelerators." (§4.1)
//
// Stage 1 translates a process's virtual address (VA) to an intermediate
// physical address (IPA) under an ASID; stage 2 translates IPA to
// physical address (PA) under a VMID, the hypervisor's domain. A stream
// ID — the identity of the master issuing the access, e.g. an accelerator
// instance — selects a context bank binding (ASID, VMID), so a hardware
// function invoked directly from user space is confined to exactly the
// pages that user's process maps.
package smmu

import (
	"errors"
	"fmt"

	"ecoscale/internal/sim"
)

// Perm is an access-permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

func (p Perm) String() string {
	s := ""
	if p&PermRead != 0 {
		s += "r"
	}
	if p&PermWrite != 0 {
		s += "w"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// FaultKind classifies a translation fault.
type FaultKind int

// Fault kinds.
const (
	FaultTranslationStage1 FaultKind = iota
	FaultTranslationStage2
	FaultPermissionStage1
	FaultPermissionStage2
	FaultNoContext
)

func (k FaultKind) String() string {
	switch k {
	case FaultTranslationStage1:
		return "stage1-translation"
	case FaultTranslationStage2:
		return "stage2-translation"
	case FaultPermissionStage1:
		return "stage1-permission"
	case FaultPermissionStage2:
		return "stage2-permission"
	case FaultNoContext:
		return "no-context"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault reports a failed translation.
type Fault struct {
	Kind     FaultKind
	StreamID int
	VA       uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("smmu: %v fault for stream %d at %#x", f.Kind, f.StreamID, f.VA)
}

// Config shapes an SMMU instance.
type Config struct {
	// PageBits is log2 of the page size (12 → 4 KiB).
	PageBits int
	// TLBEntries is the unified final-translation TLB capacity.
	TLBEntries int
	// TLBHitLatency is the cost of a hit in the TLB.
	TLBHitLatency sim.Time
	// WalkLevelLatency is the memory-access cost per page-table level;
	// a dual-stage walk touches Stage1Levels + Stage2Levels tables.
	WalkLevelLatency sim.Time
	// Stage1Levels and Stage2Levels are the page-table depths.
	Stage1Levels, Stage2Levels int
}

// Validate returns the first problem with the config, or nil. Pages run
// from 4 KiB, the smallest ARMv8 granule, to 1 GiB, the largest block a
// 4 KiB-granule table maps.
func (c Config) Validate() error {
	if c.PageBits < 12 || c.PageBits > 30 {
		return fmt.Errorf("smmu: PageBits = %d; pages must be 2^12 (4 KiB) to 2^30 (1 GiB) bytes", c.PageBits)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("smmu: TLBEntries = %d; the TLB needs at least one entry", c.TLBEntries)
	}
	return nil
}

// DefaultConfig returns an ARM-MMU-500-flavoured configuration.
func DefaultConfig() Config {
	return Config{
		PageBits:         12,
		TLBEntries:       64,
		TLBHitLatency:    2 * sim.Nanosecond,
		WalkLevelLatency: 40 * sim.Nanosecond,
		Stage1Levels:     3,
		Stage2Levels:     3,
	}
}

type entry struct {
	target uint64 // page number of the next stage
	perm   Perm
}

type context struct {
	asid int
	vmid int
}

type tlbEntry struct {
	stream  int
	vaPage  uint64
	paPage  uint64
	perm    Perm // intersection of both stages
	lastUse uint64
	valid   bool
}

// FaultHandler is the OS/hypervisor demand-mapping hook: invoked on a
// translation fault, it may install the missing mapping and return true
// to have the access retried. HandlerLatency models the OS round trip.
// This is the "intervention of the OS (or the hypervisor)" of §4.1 that
// the SMMU makes rare rather than per-access.
type FaultHandler func(f *Fault) bool

// SMMU is a dual-stage system MMU with a unified TLB.
//
// Two flyweight mechanisms keep an idle SMMU small: the TLB array is
// allocated on the first translation (an empty and an absent TLB behave
// identically), and the stage-1/stage-2 page tables can be shared
// copy-on-write between instances via ShareTablesFrom, so 100k Workers
// with identical identity maps reference one table set until one of them
// installs a private mapping.
type SMMU struct {
	cfg      Config
	stage1   map[int]map[uint64]entry // asid → vaPage → (ipaPage, perm)
	stage2   map[int]map[uint64]entry // vmid → ipaPage → (paPage, perm)
	shared   bool                     // tables borrowed from another SMMU
	contexts map[int]context          // streamID → bank
	tlb      []tlbEntry
	clock    uint64

	handler        FaultHandler
	HandlerLatency sim.Time

	hits, misses, faults, handled uint64
}

// New creates an SMMU.
func New(cfg Config) *SMMU {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &SMMU{
		cfg:      cfg,
		stage1:   map[int]map[uint64]entry{},
		stage2:   map[int]map[uint64]entry{},
		contexts: map[int]context{},
	}
}

// ShareTablesFrom points this SMMU's stage-1 and stage-2 tables at src's,
// copy-on-write: lookups read the shared tables directly, and the first
// local Map/Unmap takes a private deep copy. Context bindings and the TLB
// stay private. src must use the same page geometry.
func (s *SMMU) ShareTablesFrom(src *SMMU) {
	if src.cfg.PageBits != s.cfg.PageBits {
		panic("smmu: table sharing requires identical page geometry")
	}
	s.stage1 = src.stage1
	s.stage2 = src.stage2
	s.shared = true
}

// ownTables takes a private deep copy of shared tables before a mutation.
func (s *SMMU) ownTables() {
	if !s.shared {
		return
	}
	copyTables := func(t map[int]map[uint64]entry) map[int]map[uint64]entry {
		out := make(map[int]map[uint64]entry, len(t))
		for id, m := range t {
			cp := make(map[uint64]entry, len(m))
			for k, v := range m {
				cp[k] = v
			}
			out[id] = cp
		}
		return out
	}
	s.stage1 = copyTables(s.stage1)
	s.stage2 = copyTables(s.stage2)
	s.shared = false
}

// PageSize returns the translation granule in bytes.
func (s *SMMU) PageSize() uint64 { return 1 << s.cfg.PageBits }

func (s *SMMU) pageOf(addr uint64) uint64 { return addr >> s.cfg.PageBits }
func (s *SMMU) offOf(addr uint64) uint64  { return addr & (s.PageSize() - 1) }

// BindContext attaches a stream ID (an accelerator or device master) to a
// context bank selecting the stage-1 ASID and stage-2 VMID.
func (s *SMMU) BindContext(streamID, asid, vmid int) {
	s.contexts[streamID] = context{asid: asid, vmid: vmid}
}

// UnbindContext removes a stream's context bank; subsequent accesses
// fault with FaultNoContext.
func (s *SMMU) UnbindContext(streamID int) {
	delete(s.contexts, streamID)
	s.invalidateTLB(func(e *tlbEntry) bool { return e.stream == streamID })
}

// MapStage1 installs a VA→IPA mapping for an ASID.
func (s *SMMU) MapStage1(asid int, va, ipa uint64, perm Perm) {
	if s.offOf(va) != 0 || s.offOf(ipa) != 0 {
		panic("smmu: stage-1 mapping must be page aligned")
	}
	s.ownTables()
	m, ok := s.stage1[asid]
	if !ok {
		m = map[uint64]entry{}
		s.stage1[asid] = m
	}
	m[s.pageOf(va)] = entry{target: s.pageOf(ipa), perm: perm}
	s.invalidateTLB(func(e *tlbEntry) bool {
		c, ok := s.contexts[e.stream]
		return ok && c.asid == asid && e.vaPage == s.pageOf(va)
	})
}

// MapStage2 installs an IPA→PA mapping for a VMID.
func (s *SMMU) MapStage2(vmid int, ipa, pa uint64, perm Perm) {
	if s.offOf(ipa) != 0 || s.offOf(pa) != 0 {
		panic("smmu: stage-2 mapping must be page aligned")
	}
	s.ownTables()
	m, ok := s.stage2[vmid]
	if !ok {
		m = map[uint64]entry{}
		s.stage2[vmid] = m
	}
	m[s.pageOf(ipa)] = entry{target: s.pageOf(pa), perm: perm}
	// Conservative: stage-2 changes flush everything in that VMID.
	s.invalidateTLB(func(e *tlbEntry) bool {
		c, ok := s.contexts[e.stream]
		return ok && c.vmid == vmid
	})
}

// MapIdentity2 identity-maps IPA page range [base, base+n pages) for the
// VMID — the common "hypervisor gives the OS real memory" setup.
func (s *SMMU) MapIdentity2(vmid int, base uint64, pages int, perm Perm) {
	for i := 0; i < pages; i++ {
		ipa := base + uint64(i)*s.PageSize()
		s.MapStage2(vmid, ipa, ipa, perm)
	}
}

// UnmapStage1 removes a VA mapping.
func (s *SMMU) UnmapStage1(asid int, va uint64) {
	s.ownTables()
	if m, ok := s.stage1[asid]; ok {
		delete(m, s.pageOf(va))
	}
	s.invalidateTLB(func(e *tlbEntry) bool {
		c, ok := s.contexts[e.stream]
		return ok && c.asid == asid && e.vaPage == s.pageOf(va)
	})
}

func (s *SMMU) invalidateTLB(match func(*tlbEntry) bool) {
	for i := range s.tlb {
		if s.tlb[i].valid && match(&s.tlb[i]) {
			s.tlb[i].valid = false
		}
	}
}

// InvalidateAll flushes the whole TLB.
func (s *SMMU) InvalidateAll() {
	for i := range s.tlb {
		s.tlb[i].valid = false
	}
}

// Result reports a successful translation.
type Result struct {
	PA     uint64
	TLBHit bool
}

// Translate resolves VA for the given stream and access type, updating
// the TLB. It returns a *Fault error on any failure.
func (s *SMMU) Translate(streamID int, va uint64, access Perm) (Result, error) {
	s.clock++
	ctx, ok := s.contexts[streamID]
	if !ok {
		s.faults++
		return Result{}, &Fault{Kind: FaultNoContext, StreamID: streamID, VA: va}
	}
	vaPage := s.pageOf(va)
	// TLB lookup.
	for i := range s.tlb {
		e := &s.tlb[i]
		if e.valid && e.stream == streamID && e.vaPage == vaPage {
			if e.perm&access != access {
				// Permission faults always re-walk to classify the stage.
				break
			}
			e.lastUse = s.clock
			s.hits++
			return Result{PA: e.paPage<<s.cfg.PageBits | s.offOf(va), TLBHit: true}, nil
		}
	}
	s.misses++
	// Stage 1 walk.
	e1, ok := s.stage1[ctx.asid][vaPage]
	if !ok {
		s.faults++
		return Result{}, &Fault{Kind: FaultTranslationStage1, StreamID: streamID, VA: va}
	}
	if e1.perm&access != access {
		s.faults++
		return Result{}, &Fault{Kind: FaultPermissionStage1, StreamID: streamID, VA: va}
	}
	// Stage 2 walk.
	e2, ok := s.stage2[ctx.vmid][e1.target]
	if !ok {
		s.faults++
		return Result{}, &Fault{Kind: FaultTranslationStage2, StreamID: streamID, VA: va}
	}
	if e2.perm&access != access {
		s.faults++
		return Result{}, &Fault{Kind: FaultPermissionStage2, StreamID: streamID, VA: va}
	}
	// Fill TLB (LRU victim), materializing it on the first fill.
	if s.tlb == nil {
		s.tlb = make([]tlbEntry, s.cfg.TLBEntries)
	}
	victim := 0
	for i := range s.tlb {
		if !s.tlb[i].valid {
			victim = i
			break
		}
		if s.tlb[i].lastUse < s.tlb[victim].lastUse {
			victim = i
		}
	}
	s.tlb[victim] = tlbEntry{
		stream: streamID, vaPage: vaPage, paPage: e2.target,
		perm: e1.perm & e2.perm, lastUse: s.clock, valid: true,
	}
	return Result{PA: e2.target<<s.cfg.PageBits | s.offOf(va)}, nil
}

// Latency returns the simulated cost of the most recent class of lookup:
// a TLB hit costs TLBHitLatency, a miss costs the full dual-stage walk.
func (s *SMMU) Latency(hit bool) sim.Time {
	if hit {
		return s.cfg.TLBHitLatency
	}
	levels := s.cfg.Stage1Levels + s.cfg.Stage2Levels
	return s.cfg.TLBHitLatency + sim.Time(levels)*s.cfg.WalkLevelLatency
}

// SetFaultHandler installs the demand-mapping hook used by
// TranslateTimed; nil disables retry.
func (s *SMMU) SetFaultHandler(h FaultHandler) {
	s.handler = h
	if s.HandlerLatency == 0 {
		s.HandlerLatency = 3 * sim.Microsecond // OS fault round trip
	}
}

// Handled returns how many faults the handler resolved.
func (s *SMMU) Handled() uint64 { return s.handled }

// TranslateTimed performs a translation and schedules done with its
// result after the appropriate TLB-hit or table-walk latency. On a
// fault, an installed handler gets one chance (per fault, at OS-handler
// latency) to map the page and retry — demand paging for user-level
// accelerator access.
func (s *SMMU) TranslateTimed(eng *sim.Engine, streamID int, va uint64, access Perm, done func(Result, error)) {
	res, err := s.Translate(streamID, va, access)
	if err != nil && s.handler != nil {
		var f *Fault
		if errors.As(err, &f) && s.handler(f) {
			s.handled++
			eng.After(s.HandlerLatency, func() {
				res2, err2 := s.Translate(streamID, va, access)
				eng.After(s.Latency(err2 == nil && res2.TLBHit), func() {
					if done != nil {
						done(res2, err2)
					}
				})
			})
			return
		}
	}
	eng.After(s.Latency(err == nil && res.TLBHit), func() {
		if done != nil {
			done(res, err)
		}
	})
}

// Hits returns the TLB hit count.
func (s *SMMU) Hits() uint64 { return s.hits }

// Misses returns the TLB miss count (successful walks and faults).
func (s *SMMU) Misses() uint64 { return s.misses }

// Faults returns the fault count.
func (s *SMMU) Faults() uint64 { return s.faults }
