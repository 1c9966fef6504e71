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
//
// A translation fault is returned to the caller, which aborts the access;
// the OS or hypervisor intervention that could map the page on demand
// (§4.1) is not modelled.
package smmu

import (
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

// window is an identity rule: pages [0, pages) map to themselves with perm.
type window struct {
	pages uint64
	perm  Perm
}

// table is one ASID's stage-1 or one VMID's stage-2 translation table:
// explicit per-page entries, consulted first, then identity windows.
// It answers as if every map had written per-page entries in call
// order: an identity window deletes the explicit entries it covers and
// the older windows it covers whole, so every explicit entry is newer
// than the windows covering it, and the windows, newest first, widen.
type table struct {
	pages   map[uint64]entry
	windows []window
}

func (t *table) lookup(page uint64) (entry, bool) {
	if t == nil {
		return entry{}, false
	}
	if e, ok := t.pages[page]; ok {
		return e, true
	}
	for _, w := range t.windows {
		if page < w.pages {
			return entry{target: page, perm: w.perm}, true
		}
	}
	return entry{}, false
}

func (t *table) set(page uint64, e entry) {
	if t.pages == nil {
		t.pages = map[uint64]entry{}
	}
	t.pages[page] = e
}

// identity lays an identity window over the table.
func (t *table) identity(pages uint64, perm Perm) {
	for p := range t.pages {
		if p < pages {
			delete(t.pages, p)
		}
	}
	hidden := 0
	for hidden < len(t.windows) && t.windows[hidden].pages <= pages {
		hidden++
	}
	t.windows = append([]window{{pages: pages, perm: perm}}, t.windows[hidden:]...)
}

// tableFor returns the table for id, creating an empty one.
func tableFor(tables map[int]*table, id int) *table {
	t, ok := tables[id]
	if !ok {
		t = &table{}
		tables[id] = t
	}
	return t
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

// SMMU is a dual-stage system MMU with a unified TLB.
//
// An idle SMMU stays small: the TLB array is allocated on the first
// translation (an empty and an absent TLB behave identically), and an
// identity map is one window rule per ASID and VMID rather than an
// entry per page, so MapIdentity costs the same at any window size.
type SMMU struct {
	cfg      Config
	stage1   map[int]*table  // asid → vaPage → (ipaPage, perm)
	stage2   map[int]*table  // vmid → ipaPage → (paPage, perm)
	contexts map[int]context // streamID → bank
	tlb      []tlbEntry
	clock    uint64

	hits, misses, faults uint64
}

// New creates an SMMU.
func New(cfg Config) *SMMU {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &SMMU{
		cfg:      cfg,
		stage1:   map[int]*table{},
		stage2:   map[int]*table{},
		contexts: map[int]context{},
	}
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

// MapStage1 installs a VA→IPA mapping for an ASID.
func (s *SMMU) MapStage1(asid int, va, ipa uint64, perm Perm) {
	if s.offOf(va) != 0 || s.offOf(ipa) != 0 {
		panic("smmu: stage-1 mapping must be page aligned")
	}
	tableFor(s.stage1, asid).set(s.pageOf(va), entry{target: s.pageOf(ipa), perm: perm})
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
	tableFor(s.stage2, vmid).set(s.pageOf(ipa), entry{target: s.pageOf(pa), perm: perm})
	// Conservative: stage-2 changes flush everything in that VMID.
	s.invalidateTLB(func(e *tlbEntry) bool {
		c, ok := s.contexts[e.stream]
		return ok && c.vmid == vmid
	})
}

// MapIdentity identity-maps the first pages pages of the address space
// in both stages: VA == IPA under the ASID and IPA == PA under the VMID,
// each with perm — the "hypervisor gives the OS real memory" setup. It
// gives the same translations and flushes the same TLB entries as a
// MapStage1 plus MapStage2 call per page, but stores one window rule
// per stage, so its cost does not grow with pages.
func (s *SMMU) MapIdentity(asid, vmid, pages int, perm Perm) {
	tableFor(s.stage1, asid).identity(uint64(pages), perm)
	tableFor(s.stage2, vmid).identity(uint64(pages), perm)
	s.invalidateTLB(func(e *tlbEntry) bool {
		c, ok := s.contexts[e.stream]
		return ok && (c.vmid == vmid || c.asid == asid && e.vaPage < uint64(pages))
	})
}

func (s *SMMU) invalidateTLB(match func(*tlbEntry) bool) {
	for i := range s.tlb {
		if s.tlb[i].valid && match(&s.tlb[i]) {
			s.tlb[i].valid = false
		}
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
	e1, ok := s.stage1[ctx.asid].lookup(vaPage)
	if !ok {
		s.faults++
		return Result{}, &Fault{Kind: FaultTranslationStage1, StreamID: streamID, VA: va}
	}
	if e1.perm&access != access {
		s.faults++
		return Result{}, &Fault{Kind: FaultPermissionStage1, StreamID: streamID, VA: va}
	}
	// Stage 2 walk.
	e2, ok := s.stage2[ctx.vmid].lookup(e1.target)
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

// TranslateTimed performs a translation and schedules done with its
// result after the appropriate TLB-hit or table-walk latency.
func (s *SMMU) TranslateTimed(eng *sim.Engine, streamID int, va uint64, access Perm, done func(Result, error)) {
	res, err := s.Translate(streamID, va, access)
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
