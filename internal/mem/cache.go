// Package mem provides the memory-system substrate of the ECOSCALE
// reproduction: set-associative write-back caches, a DRAM channel model,
// and — as the baseline that UNIMEM is designed to replace — a
// directory-based global cache-coherence protocol whose traffic the paper
// asserts "simply cannot scale" (§4.1).
package mem

import (
	"fmt"

	"ecoscale/internal/sim"
)

// LineBytes is the coherence/cache-line granularity used throughout.
const LineBytes = 64

// CacheConfig shapes a set-associative cache.
type CacheConfig struct {
	Sets       int
	Ways       int
	HitLatency sim.Time
}

// DefaultL2Config returns a 512 KiB, 8-way cache with a 5 ns hit.
func DefaultL2Config() CacheConfig {
	return CacheConfig{Sets: 1024, Ways: 8, HitLatency: 5 * sim.Nanosecond}
}

// AccessResult reports the outcome of a cache access.
type AccessResult struct {
	Hit bool
	// Evicted is true when the access displaced a valid line.
	Evicted bool
	// EvictedAddr is the line address displaced (valid when Evicted).
	EvictedAddr uint64
	// WritebackNeeded is true when the evicted line was dirty.
	WritebackNeeded bool
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	// lastUse is a logical LRU stamp.
	lastUse uint64
}

// Cache is a set-associative write-back, write-allocate cache indexed by
// line address. It models state only; timing is composed by callers.
//
// The line array is materialized on the first Access: an untouched cache
// costs a few words, so a 100k-worker machine only pays for the caches
// that traffic actually reaches. An empty and an unmaterialized cache are
// observationally identical (all lookups miss, nothing to invalidate).
type Cache struct {
	cfg   CacheConfig
	sets  [][]cacheLine
	clock uint64

	hits, misses, writebacks uint64
}

// NewCache creates an empty cache.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("mem: cache needs positive sets and ways")
	}
	return &Cache{cfg: cfg}
}

// ensureSets materializes the line array, backed by one flat allocation.
func (c *Cache) ensureSets() {
	if c.sets != nil {
		return
	}
	lines := make([]cacheLine, c.cfg.Sets*c.cfg.Ways)
	c.sets = make([][]cacheLine, c.cfg.Sets)
	for i := range c.sets {
		c.sets[i] = lines[i*c.cfg.Ways : (i+1)*c.cfg.Ways]
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return c.cfg.Sets * c.cfg.Ways * LineBytes }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr / LineBytes
	return int(line % uint64(c.cfg.Sets)), line / uint64(c.cfg.Sets)
}

// lineAddr reconstructs the byte address of a line from set and tag.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.cfg.Sets) + uint64(set)) * LineBytes
}

// Access performs a read or write of the line containing addr, allocating
// on miss and returning eviction details.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.ensureSets()
	set, tag := c.index(addr)
	c.clock++
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lastUse = c.clock
			if write {
				lines[i].dirty = true
			}
			c.hits++
			return AccessResult{Hit: true}
		}
	}
	c.misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lastUse < lines[victim].lastUse {
			victim = i
		}
	}
	res := AccessResult{}
	if lines[victim].valid {
		res.Evicted = true
		res.EvictedAddr = c.lineAddr(set, lines[victim].tag)
		res.WritebackNeeded = lines[victim].dirty
		if lines[victim].dirty {
			c.writebacks++
		}
	}
	lines[victim] = cacheLine{tag: tag, valid: true, dirty: write, lastUse: c.clock}
	return res
}

// Contains reports whether the line holding addr is present.
func (c *Cache) Contains(addr uint64) bool {
	if c.sets == nil {
		return false
	}
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops the line holding addr, reporting whether it was present
// and whether it was dirty (lost-update hazard if the caller ignores it).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	if c.sets == nil {
		return false, false
	}
	set, tag := c.index(addr)
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			present, dirty = true, lines[i].dirty
			lines[i] = cacheLine{}
			return
		}
	}
	return false, false
}

// InvalidateRange drops every cached line overlapping [addr, addr+size),
// returning how many dirty lines were lost (callers must write those back
// first for correctness).
func (c *Cache) InvalidateRange(addr uint64, size int) (dropped, dirty int) {
	if size <= 0 || c.sets == nil {
		return 0, 0
	}
	first := addr / LineBytes
	last := (addr + uint64(size) - 1) / LineBytes
	for line := first; line <= last; line++ {
		p, d := c.Invalidate(line * LineBytes)
		if p {
			dropped++
		}
		if d {
			dirty++
		}
	}
	return
}

// FlushDirty returns the addresses of all dirty lines and marks them
// clean (the write-back itself is the caller's job).
func (c *Cache) FlushDirty() []uint64 {
	var out []uint64
	for set := range c.sets {
		for i := range c.sets[set] {
			l := &c.sets[set][i]
			if l.valid && l.dirty {
				out = append(out, c.lineAddr(set, l.tag))
				l.dirty = false
			}
		}
	}
	return out
}

// ValidLines returns the number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for set := range c.sets {
		for _, l := range c.sets[set] {
			if l.valid {
				n++
			}
		}
	}
	return n
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// Writebacks returns how many dirty evictions occurred.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// HitRate returns hits/(hits+misses), 0 when no accesses occurred.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

func (c *Cache) String() string {
	return fmt.Sprintf("cache[%dKiB %d-way]: %.1f%% hit (%d/%d), %d wb",
		c.SizeBytes()/1024, c.cfg.Ways, 100*c.HitRate(), c.hits, c.hits+c.misses, c.writebacks)
}

// DRAMConfig shapes a DRAM channel.
type DRAMConfig struct {
	// AccessLatency is the closed-bank access latency.
	AccessLatency sim.Time
	// BytesPerNs is the channel's streaming bandwidth.
	BytesPerNs float64
	// Banks is how many accesses the channel overlaps.
	Banks int
}

// DefaultDRAMConfig returns a single-channel DDR4-class model.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{AccessLatency: 60 * sim.Nanosecond, BytesPerNs: 12.8, Banks: 8}
}

// DRAM models one memory channel with banked parallelism.
type DRAM struct {
	eng      *sim.Engine
	cfg      DRAMConfig
	banks    *sim.Resource
	accesses uint64
	bytes    uint64
}

// NewDRAM creates a channel.
func NewDRAM(eng *sim.Engine, cfg DRAMConfig) *DRAM {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	return &DRAM{eng: eng, cfg: cfg, banks: sim.NewResource(eng, "dram", cfg.Banks)}
}

// Access reads or writes size bytes, calling done when the data has moved.
func (d *DRAM) Access(size int, done func()) {
	d.banks.Use(d.account(size), done)
}

// AccessCall is Access with a static-function completion: fn(arg) runs
// when the data has moved, with no closure at the call site.
func (d *DRAM) AccessCall(size int, fn func(any), arg any) {
	d.banks.UseCall(d.account(size), fn, arg)
}

// account counts one access of size bytes and returns how long it holds
// a bank.
func (d *DRAM) account(size int) sim.Time {
	d.accesses++
	d.bytes += uint64(size)
	transfer := sim.Time(float64(size) / d.cfg.BytesPerNs * float64(sim.Nanosecond))
	return d.cfg.AccessLatency + transfer
}

// Accesses returns the access count.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// Bytes returns the total bytes moved.
func (d *DRAM) Bytes() uint64 { return d.bytes }
