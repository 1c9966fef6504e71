package smmu

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ecoscale/internal/sim"
)

const pg = uint64(4096)

// newMapped returns an SMMU with stream 1 bound to (asid=10, vmid=20) and
// VA page 5 → IPA page 7 → PA page 9, RW.
func newMapped(t *testing.T) *SMMU {
	t.Helper()
	s := New(DefaultConfig())
	s.BindContext(1, 10, 20)
	s.MapStage1(10, 5*pg, 7*pg, PermRW)
	s.MapStage2(20, 7*pg, 9*pg, PermRW)
	return s
}

// mapStage2Identity identity-maps IPA pages [0, pages) under vmid, RW,
// leaving stage 1 to the test.
func mapStage2Identity(s *SMMU, vmid int, pages uint64) {
	for p := uint64(0); p < pages; p++ {
		s.MapStage2(vmid, p*pg, p*pg, PermRW)
	}
}

// TestMapIdentityMatchesPerPageMaps checks the bulk identity map against
// a MapStage1 plus MapStage2 call per page, on an SMMU whose TLB already
// caches a translation the new map replaces.
func TestMapIdentityMatchesPerPageMaps(t *testing.T) {
	const pages = 16
	build := func(bulk bool) *SMMU {
		s := New(DefaultConfig())
		s.BindContext(1, 3, 4)
		s.BindContext(2, 5, 4)
		s.MapStage1(3, 0, 100*pg, PermRW)
		s.MapStage1(5, 0, 0, PermRW)
		s.MapStage2(4, 100*pg, 200*pg, PermRW)
		if _, err := s.Translate(1, 0, PermRead); err != nil {
			t.Fatal(err)
		}
		if bulk {
			s.MapIdentity(3, 4, pages, PermRead)
		} else {
			for p := uint64(0); p < pages; p++ {
				s.MapStage1(3, p*pg, p*pg, PermRead)
				s.MapStage2(4, p*pg, p*pg, PermRead)
			}
		}
		return s
	}
	bulk, loop := build(true), build(false)
	cases := []struct {
		name   string
		stream int
		va     uint64
		access Perm
	}{
		{"first page", 1, 12, PermRead},
		{"first page again", 1, 34, PermRead},
		{"last page", 1, (pages-1)*pg + 8, PermRead},
		{"past the window", 1, pages * pg, PermRead},
		{"wrong permission", 1, 3 * pg, PermWrite},
		{"other asid, same vmid", 2, 0, PermRead},
		{"other asid, wrong permission", 2, 0, PermWrite},
	}
	for _, c := range cases {
		got, gotErr := bulk.Translate(c.stream, c.va, c.access)
		want, wantErr := loop.Translate(c.stream, c.va, c.access)
		if got != want || faultKind(gotErr) != faultKind(wantErr) {
			t.Errorf("%s: MapIdentity gives %+v, %v; per-page maps give %+v, %v",
				c.name, got, gotErr, want, wantErr)
		}
	}
	if _, err := bulk.Translate(1, pages*pg, PermRead); faultKind(err) != "stage1-translation" {
		t.Errorf("access past the window: %v; want a stage-1 translation fault", err)
	}
	if _, err := bulk.Translate(1, 0, PermWrite); faultKind(err) != "stage1-permission" {
		t.Errorf("write to a read-only page: %v; want a stage-1 permission fault", err)
	}
}

// faultKind names the kind of a *Fault error, "" for nil.
func faultKind(err error) string {
	if err == nil {
		return ""
	}
	var f *Fault
	if !errors.As(err, &f) {
		return err.Error()
	}
	return f.Kind.String()
}

// mapOp is one table update: MapIdentity(id, vmid, pages, perm) when
// pages > 0, otherwise page from → to under id in stage 1 or 2.
type mapOp struct {
	stage, id, vmid int
	from, to        uint64 // page numbers
	pages           int
	perm            Perm
}

// apply performs op on s, expanding an identity window into a
// MapStage1 plus MapStage2 call per page unless bulk is set.
func (op mapOp) apply(s *SMMU, bulk bool) {
	switch {
	case op.pages > 0 && bulk:
		s.MapIdentity(op.id, op.vmid, op.pages, op.perm)
	case op.pages > 0:
		for p := uint64(0); p < uint64(op.pages); p++ {
			s.MapStage1(op.id, p*pg, p*pg, op.perm)
			s.MapStage2(op.vmid, p*pg, p*pg, op.perm)
		}
	case op.stage == 1:
		s.MapStage1(op.id, op.from*pg, op.to*pg, op.perm)
	default:
		s.MapStage2(op.id, op.from*pg, op.to*pg, op.perm)
	}
}

// identity returns the op MapIdentity(asid, vmid, pages, perm).
func identity(asid, vmid, pages int, perm Perm) mapOp {
	return mapOp{id: asid, vmid: vmid, pages: pages, perm: perm}
}

// TestMapIdentityOrdersMatchPerPageMaps replays sequences of identity
// windows and per-page maps on two SMMUs, one taking MapIdentity as a
// window rule and one as a MapStage1 plus MapStage2 call per page. After
// every step each stream translates every page near the windows for
// reads and writes, so the TLB is warm before the next step; the two
// must agree on every result and fault, and hold identical TLB arrays,
// which pins the entries each step flushes.
func TestMapIdentityOrdersMatchPerPageMaps(t *testing.T) {
	cases := []struct {
		name string
		ops  []mapOp
	}{
		{"identity over earlier per-page entries", []mapOp{
			{stage: 1, id: 3, from: 2, to: 30, perm: PermRW},
			{stage: 2, id: 4, from: 30, to: 50, perm: PermRW},
			{stage: 2, id: 4, from: 5, to: 60, perm: PermRW},
			{stage: 1, id: 3, from: 20, to: 20, perm: PermRW},
			{stage: 2, id: 4, from: 20, to: 21, perm: PermRW},
			identity(3, 4, 16, PermRead),
		}},
		{"per-page remap inside the window", []mapOp{
			identity(3, 4, 16, PermRW),
			{stage: 1, id: 3, from: 4, to: 9, perm: PermRead},
			{stage: 2, id: 4, from: 9, to: 40, perm: PermRW},
			{stage: 2, id: 4, from: 6, to: 41, perm: PermWrite},
			{stage: 1, id: 5, from: 7, to: 7, perm: PermRW},
		}},
		{"second identity, smaller window and another perm", []mapOp{
			identity(3, 4, 16, PermRW),
			{stage: 1, id: 3, from: 12, to: 3, perm: PermRW},
			{stage: 1, id: 3, from: 2, to: 13, perm: PermRW},
			identity(3, 4, 8, PermRead),
			identity(3, 4, 4, PermWrite),
		}},
		{"second identity, wider window", []mapOp{
			identity(3, 4, 8, PermRead),
			{stage: 2, id: 4, from: 10, to: 11, perm: PermRW},
			identity(3, 4, 16, PermRW),
			identity(3, 4, 16, PermRead),
		}},
		{"identity under other ids sharing a bank", []mapOp{
			identity(3, 4, 8, PermRW),
			identity(5, 4, 12, PermRead),
			identity(3, 6, 10, PermRW),
			{stage: 2, id: 6, from: 1, to: 2, perm: PermRW},
		}},
	}
	cfg := DefaultConfig()
	cfg.TLBEntries = 512 // no evictions: every flush difference shows
	for _, c := range cases {
		bulk, loop := New(cfg), New(cfg)
		for _, s := range []*SMMU{bulk, loop} {
			s.BindContext(1, 3, 4)
			s.BindContext(2, 5, 4)
			s.BindContext(3, 3, 6)
		}
		for step, op := range c.ops {
			op.apply(bulk, true)
			op.apply(loop, false)
			for stream := 1; stream <= 3; stream++ {
				for page := uint64(0); page < 24; page++ {
					for _, access := range []Perm{PermRead, PermWrite} {
						va := page*pg + 8
						got, gotErr := bulk.Translate(stream, va, access)
						want, wantErr := loop.Translate(stream, va, access)
						if got != want || faultKind(gotErr) != faultKind(wantErr) {
							t.Errorf("%s, step %d, stream %d, page %d, %v: MapIdentity gives %+v, %v; per-page maps give %+v, %v",
								c.name, step, stream, page, access, got, gotErr, want, wantErr)
						}
					}
				}
			}
			if !slices.Equal(bulk.tlb, loop.tlb) {
				t.Errorf("%s, step %d: TLB differs from the per-page reference", c.name, step)
			}
		}
		if bulk.Hits() != loop.Hits() || bulk.Misses() != loop.Misses() || bulk.Faults() != loop.Faults() {
			t.Errorf("%s: hits/misses/faults %d/%d/%d; per-page maps give %d/%d/%d", c.name,
				bulk.Hits(), bulk.Misses(), bulk.Faults(), loop.Hits(), loop.Misses(), loop.Faults())
		}
	}
	// The first page past the latest window faults in stage 1.
	s := New(cfg)
	s.BindContext(1, 3, 4)
	identity(3, 4, 16, PermRW).apply(s, true)
	identity(3, 4, 8, PermRW).apply(s, true)
	if _, err := s.Translate(1, 15*pg, PermRead); err != nil {
		t.Errorf("last page of the wider window: %v", err)
	}
	if _, err := s.Translate(1, 16*pg, PermRead); faultKind(err) != "stage1-translation" {
		t.Errorf("first page past the window: %v; want a stage-1 translation fault", err)
	}
}

// TestMapIdentityAllocsIndependentOfPages checks that an identity map
// is a rule: mapping 4,096 pages allocates no more than mapping 16.
func TestMapIdentityAllocsIndependentOfPages(t *testing.T) {
	allocs := func(pages int) float64 {
		return testing.AllocsPerRun(20, func() {
			New(DefaultConfig()).MapIdentity(1, 1, pages, PermRW)
		})
	}
	if small, large := allocs(16), allocs(4096); small != large {
		t.Errorf("MapIdentity allocations: %v at 16 pages, %v at 4096", small, large)
	}
}

func TestTranslateTwoStages(t *testing.T) {
	s := newMapped(t)
	res, err := s.Translate(1, 5*pg+123, PermRead)
	if err != nil {
		t.Fatalf("Translate failed: %v", err)
	}
	if res.PA != 9*pg+123 {
		t.Errorf("PA = %#x, want %#x", res.PA, 9*pg+123)
	}
	if res.TLBHit {
		t.Error("first translation claimed TLB hit")
	}
	res2, err := s.Translate(1, 5*pg+456, PermWrite)
	if err != nil || !res2.TLBHit {
		t.Errorf("second translation should hit TLB: %v %v", res2, err)
	}
	if res2.PA != 9*pg+456 {
		t.Errorf("TLB hit PA = %#x, want %#x", res2.PA, 9*pg+456)
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Hits(), s.Misses())
	}
}

func TestFaultKinds(t *testing.T) {
	s := newMapped(t)
	cases := []struct {
		name   string
		stream int
		va     uint64
		access Perm
		want   FaultKind
	}{
		{"no context", 99, 5 * pg, PermRead, FaultNoContext},
		{"stage1 translation", 1, 6 * pg, PermRead, FaultTranslationStage1},
	}
	for _, c := range cases {
		_, err := s.Translate(c.stream, c.va, c.access)
		var f *Fault
		if !errors.As(err, &f) || f.Kind != c.want {
			t.Errorf("%s: err = %v, want kind %v", c.name, err, c.want)
		}
	}
	// Stage-2 translation fault: stage 1 maps to an unmapped IPA.
	s.MapStage1(10, 6*pg, 8*pg, PermRW)
	_, err := s.Translate(1, 6*pg, PermRead)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultTranslationStage2 {
		t.Errorf("stage-2 fault = %v", err)
	}
	if s.Faults() != 3 {
		t.Errorf("Faults = %d, want 3", s.Faults())
	}
}

func TestPermissionFaults(t *testing.T) {
	s := New(DefaultConfig())
	s.BindContext(1, 10, 20)
	s.MapStage1(10, 0, 0, PermRead) // read-only stage 1
	s.MapStage2(20, 0, 0, PermRW)
	if _, err := s.Translate(1, 0, PermRead); err != nil {
		t.Fatalf("read should pass: %v", err)
	}
	_, err := s.Translate(1, 0, PermWrite)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultPermissionStage1 {
		t.Errorf("want stage-1 permission fault, got %v", err)
	}

	s2 := New(DefaultConfig())
	s2.BindContext(1, 10, 20)
	s2.MapStage1(10, 0, 0, PermRW)
	s2.MapStage2(20, 0, 0, PermRead) // hypervisor says read-only
	_, err = s2.Translate(1, 0, PermWrite)
	if !errors.As(err, &f) || f.Kind != FaultPermissionStage2 {
		t.Errorf("want stage-2 permission fault, got %v", err)
	}
}

func TestPermAfterTLBFill(t *testing.T) {
	// A write after a read-triggered fill must still be permission-checked
	// against the cached intersection.
	s := New(DefaultConfig())
	s.BindContext(1, 10, 20)
	s.MapStage1(10, 0, 0, PermRW)
	s.MapStage2(20, 0, 0, PermRead)
	if _, err := s.Translate(1, 8, PermRead); err != nil {
		t.Fatalf("read failed: %v", err)
	}
	if _, err := s.Translate(1, 8, PermWrite); err == nil {
		t.Error("write through read-only TLB entry did not fault")
	}
}

func TestStreamIsolation(t *testing.T) {
	// Two streams bound to different ASIDs see different translations of
	// the same VA — the user-level-access isolation property.
	s := New(DefaultConfig())
	s.BindContext(1, 10, 20)
	s.BindContext(2, 11, 20)
	s.MapStage1(10, 0, 1*pg, PermRW)
	s.MapStage1(11, 0, 2*pg, PermRW)
	mapStage2Identity(s, 20, 8)
	r1, err1 := s.Translate(1, 100, PermRead)
	r2, err2 := s.Translate(2, 100, PermRead)
	if err1 != nil || err2 != nil {
		t.Fatalf("translations failed: %v %v", err1, err2)
	}
	if r1.PA == r2.PA {
		t.Error("streams with different ASIDs resolved to the same PA")
	}
	if r1.PA != 1*pg+100 || r2.PA != 2*pg+100 {
		t.Errorf("PAs = %#x, %#x", r1.PA, r2.PA)
	}
}

func TestRemapStage1InvalidatesTLB(t *testing.T) {
	s := newMapped(t)
	if _, err := s.Translate(1, 5*pg, PermRead); err != nil {
		t.Fatal(err)
	}
	s.MapStage2(20, 8*pg, 11*pg, PermRW)
	s.MapStage1(10, 5*pg, 8*pg, PermRW) // remap to a new IPA
	res, err := s.Translate(1, 5*pg, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 11*pg {
		t.Errorf("remapped PA = %#x, want %#x (stale TLB?)", res.PA, 11*pg)
	}
}

func TestStage2RemapFlushesVMID(t *testing.T) {
	s := newMapped(t)
	if _, err := s.Translate(1, 5*pg, PermRead); err != nil {
		t.Fatal(err)
	}
	s.MapStage2(20, 7*pg, 15*pg, PermRW) // hypervisor moves the page
	res, err := s.Translate(1, 5*pg, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 15*pg {
		t.Errorf("PA after stage-2 remap = %#x, want %#x", res.PA, 15*pg)
	}
}

func TestTLBEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TLBEntries = 2
	s := New(cfg)
	s.BindContext(1, 10, 20)
	mapStage2Identity(s, 20, 16)
	for i := uint64(0); i < 4; i++ {
		s.MapStage1(10, i*pg, i*pg, PermRW)
	}
	for i := uint64(0); i < 4; i++ {
		if _, err := s.Translate(1, i*pg, PermRead); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0 must have been evicted by now.
	res, err := s.Translate(1, 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if res.TLBHit {
		t.Error("expected capacity miss after eviction")
	}
}

func TestLatency(t *testing.T) {
	s := New(DefaultConfig())
	if !(s.Latency(true) < s.Latency(false)) {
		t.Error("TLB hit should be cheaper than walk")
	}
	want := s.cfg.TLBHitLatency + 6*s.cfg.WalkLevelLatency
	if s.Latency(false) != want {
		t.Errorf("walk latency = %v, want %v", s.Latency(false), want)
	}
}

func TestTranslateTimed(t *testing.T) {
	eng := sim.NewEngine(1)
	s := newMapped(t)
	var missT, hitT sim.Time
	s.TranslateTimed(eng, 1, 5*pg, PermRead, func(r Result, err error) {
		if err != nil {
			t.Errorf("timed translate failed: %v", err)
		}
		missT = eng.Now()
		start := eng.Now()
		s.TranslateTimed(eng, 1, 5*pg, PermRead, func(r Result, err error) {
			hitT = eng.Now() - start
		})
	})
	eng.RunUntilIdle()
	if hitT >= missT {
		t.Errorf("TLB hit (%v) should be faster than walk (%v)", hitT, missT)
	}
	// A fault reaches done as the error after one walk; it is not retried.
	var faultErr error
	calls := 0
	start := eng.Now()
	var faultT sim.Time
	s.TranslateTimed(eng, 1, 6*pg, PermRead, func(_ Result, err error) {
		faultErr, faultT = err, eng.Now()-start
		calls++
	})
	eng.RunUntilIdle()
	if faultKind(faultErr) != "stage1-translation" || calls != 1 || faultT != s.Latency(false) {
		t.Errorf("unmapped page: err %v after %v in %d calls; want one stage-1 fault after %v",
			faultErr, faultT, calls, s.Latency(false))
	}
}

func TestAlignmentPanics(t *testing.T) {
	s := New(DefaultConfig())
	for name, fn := range map[string]func(){
		"stage1": func() { s.MapStage1(1, 100, 0, PermRW) },
		"stage2": func() { s.MapStage2(1, 0, 100, PermRW) },
		"config": func() { New(Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw" || PermRead.String() != "r" || Perm(0).String() != "-" {
		t.Error("Perm.String wrong")
	}
}

func TestFaultKindString(t *testing.T) {
	if !strings.Contains(FaultTranslationStage2.String(), "stage2") {
		t.Error("FaultKind string wrong")
	}
	if !strings.Contains((&Fault{Kind: FaultNoContext, StreamID: 3, VA: 0x1000}).Error(), "stream 3") {
		t.Error("Fault error string wrong")
	}
}

// Property: for every mapped VA, Translate equals manual composition of
// the two stages, TLB on or off; and offsets are preserved.
func TestComposeProperty(t *testing.T) {
	s := New(DefaultConfig())
	s.BindContext(1, 10, 20)
	stage1 := map[uint64]uint64{}
	stage2 := map[uint64]uint64{}
	for i := uint64(0); i < 32; i++ {
		ipa := (i*7 + 3) % 64
		pa := (ipa*13 + 5) % 128
		s.MapStage1(10, i*pg, ipa*pg, PermRW)
		stage1[i] = ipa
		if _, ok := stage2[ipa]; !ok {
			s.MapStage2(20, ipa*pg, pa*pg, PermRW)
			stage2[ipa] = pa
		}
	}
	prop := func(pageRaw uint8, offRaw uint16) bool {
		page := uint64(pageRaw % 32)
		off := uint64(offRaw) % pg
		va := page*pg + off
		res, err := s.Translate(1, va, PermRead)
		if err != nil {
			return false
		}
		want := stage2[stage1[page]]*pg + off
		return res.PA == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: unmapped VAs never translate silently.
func TestUnmappedAlwaysFaults(t *testing.T) {
	s := newMapped(t)
	prop := func(pageRaw uint16) bool {
		page := uint64(pageRaw)
		if page == 5 {
			return true // the one mapped page
		}
		_, err := s.Translate(1, page*pg, PermRead)
		return err != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
