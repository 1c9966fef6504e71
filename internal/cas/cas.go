// Package cas is a content-addressed store for simulation results.
//
// A Point of an experiment Scenario is a pure function of four inputs:
// the scenario id, the canonical encoding of the point's parameters,
// the seed, and the version stamp of the simulation kernel. The store
// keys each result by a SHA-256 over the canonical serialization of
// that tuple, so identical work — repeated runs, overlapping sweeps,
// concurrent duplicate submissions — resolves to the same address and
// is computed at most once.
//
// Two tiers back the address space:
//
//   - an in-memory LRU bounded by payload bytes, for hits within and
//     across scenarios of one process;
//   - an optional on-disk tier (sharded by hash prefix, one entry per
//     file, checksummed, written via temp file + atomic rename), for
//     hits across processes and days.
//
// Every read of a disk entry re-validates magic, format version, sizes,
// stored key and checksum; anything short of a perfect entry — a torn
// write, a flipped bit, a file from an older format — counts as a miss
// (and a cache.corrupt tick), never a wrong result. Concurrent requests
// for one key are deduplicated in-flight: the first caller computes,
// the rest wait and share (cache.dedup).
package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ecoscale/internal/trace"
)

// Key identifies one cached result. All four fields participate in the
// address: flipping any single one yields a distinct hash, so a bumped
// kernel version invalidates every prior entry without touching disk.
type Key struct {
	Scenario string // scenario / experiment id, e.g. "E3"
	Params   string // canonical point-parameter encoding (see Params)
	Seed     int64  // simulation seed, when the point has one
	Version  string // kernel/code version stamp (core.KernelVersion)
}

// Hash is the 32-byte content address of a Key.
type Hash [sha256.Size]byte

// String returns the lowercase hex form of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// appendCanonical serializes the key unambiguously: each field is
// length-prefixed, so ("ab","c") and ("a","bc") cannot collide.
func (k Key) appendCanonical(b []byte) []byte {
	field := func(s string) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	field(k.Scenario)
	field(k.Params)
	b = binary.LittleEndian.AppendUint64(b, uint64(k.Seed))
	field(k.Version)
	return b
}

// Hash returns the content address of the key.
func (k Key) Hash() Hash {
	return sha256.Sum256(k.appendCanonical(nil))
}

// Params builds a canonical parameter encoding from alternating
// name/value pairs, in the order given: "n=4 mode=tiles". Use it when
// the parameter order is fixed in code; use ParamsMap when the
// parameters arrive in a map.
func Params(kv ...any) string {
	if len(kv)%2 != 0 {
		panic("cas.Params: odd number of key/value arguments")
	}
	b := make([]byte, 0, 32)
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprint(kv[i])...)
		b = append(b, '=')
		b = append(b, fmt.Sprint(kv[i+1])...)
	}
	return string(b)
}

// ParamsMap builds the canonical encoding of a parameter map: entries
// are sorted by name, so the result is independent of map iteration
// order.
func ParamsMap(m map[string]any) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	kv := make([]any, 0, 2*len(m))
	for _, n := range names {
		kv = append(kv, n, m[n])
	}
	return Params(kv...)
}

// Counter names the store records into its metrics registry. The
// store serializes its own registry access; callers may share the
// registry with other serialized writers (the runner does).
const (
	MetricHits      = "cache.hits"          // labeled tier=mem|disk
	MetricMisses    = "cache.misses"        // key absent from every tier
	MetricDedup     = "cache.dedup"         // calls that waited on an identical in-flight compute
	MetricEvictions = "cache.evictions"     // memory-tier LRU evictions
	MetricCorrupt   = "cache.corrupt"       // disk entries rejected by validation (torn/flipped/stale)
	MetricErrors    = "cache.errors"        // disk I/O failures (degraded to memory-only behavior)
	MetricBytesIn   = "cache.bytes.read"    // payload bytes served from cache
	MetricBytesOut  = "cache.bytes.written" // payload bytes stored on miss
)

// Options configures Open.
type Options struct {
	// Dir is the on-disk tier root; empty means memory-only.
	Dir string
	// MemBytes bounds the in-memory tier's payload bytes (default 64 MiB,
	// negative disables the memory tier).
	MemBytes int64
	// ReadOnly never touches the disk tier's contents: no entry writes,
	// no deletion of corrupt files. The process-local memory tier still
	// works. For sharing a cache directory that another process owns.
	ReadOnly bool
	// Metrics, when set, receives the cache.* counters. The store writes
	// it under its own lock from whichever goroutine calls it, so the
	// registry must not be shared with another writer (such as a
	// runner's Options.Metrics).
	Metrics *trace.Registry
}

// Store is a two-tier content-addressed result store. All methods are
// safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	mem      map[Hash]*memEntry
	lruHead  *memEntry // most recent
	lruTail  *memEntry // least recent
	memBytes int64
	memCap   int64
	flight   map[Hash]*call

	dir      string
	readOnly bool
	metrics  *trace.Registry
}

type memEntry struct {
	hash       Hash
	payload    []byte
	prev, next *memEntry
}

type call struct {
	done    chan struct{}
	payload []byte
	err     error
}

// Open creates a store. When Options.Dir is non-empty the directory
// (plus its fan-out shards, lazily) is created unless ReadOnly.
func Open(o Options) (*Store, error) {
	memCap := o.MemBytes
	if memCap == 0 {
		memCap = 64 << 20
	}
	if memCap < 0 {
		memCap = 0
	}
	s := &Store{
		mem:      make(map[Hash]*memEntry),
		memCap:   memCap,
		flight:   make(map[Hash]*call),
		dir:      o.Dir,
		readOnly: o.ReadOnly,
		metrics:  o.Metrics,
	}
	if s.dir != "" && !s.readOnly {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("cas: %w", err)
		}
	}
	return s, nil
}

// count bumps a counter under the store lock (which the caller holds).
func (s *Store) count(name string, n uint64, labels ...trace.Label) {
	if s.metrics == nil {
		return
	}
	s.metrics.CounterL(name, labels...).Add(n)
}

// Get returns the payload stored under k, consulting memory first and
// disk second (promoting disk hits into the memory tier).
func (s *Store) Get(k Key) ([]byte, bool) {
	h := k.Hash()
	s.mu.Lock()
	if e, ok := s.mem[h]; ok {
		s.touch(e)
		s.count(MetricHits, 1, trace.L("tier", "mem"))
		s.count(MetricBytesIn, uint64(len(e.payload)))
		p := e.payload
		s.mu.Unlock()
		return p, true
	}
	s.mu.Unlock()

	if s.dir == "" {
		s.mu.Lock()
		s.count(MetricMisses, 1)
		s.mu.Unlock()
		return nil, false
	}
	payload, ok := s.readDisk(k, h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.count(MetricMisses, 1)
		return nil, false
	}
	s.insertMem(h, payload)
	s.count(MetricHits, 1, trace.L("tier", "disk"))
	s.count(MetricBytesIn, uint64(len(payload)))
	return payload, true
}

// Put stores payload under k: always in the memory tier, and on disk
// unless the store is read-only.
func (s *Store) Put(k Key, payload []byte) {
	h := k.Hash()
	s.mu.Lock()
	s.insertMem(h, payload)
	s.count(MetricBytesOut, uint64(len(payload)))
	s.mu.Unlock()
	if s.dir != "" && !s.readOnly {
		if err := s.writeDisk(k, h, payload); err != nil {
			s.mu.Lock()
			s.count(MetricErrors, 1)
			s.mu.Unlock()
		}
	}
}

// Discard removes k from both tiers and counts it as corrupt. The
// runner calls it when a payload passed the store's checksums but
// failed its own decoder — a stale wire format, for example — so the
// poisoned entry cannot be served again.
func (s *Store) Discard(k Key) {
	h := k.Hash()
	s.mu.Lock()
	if e, ok := s.mem[h]; ok {
		s.removeMem(e)
	}
	s.count(MetricCorrupt, 1)
	s.mu.Unlock()
	if s.dir != "" && !s.readOnly {
		os.Remove(s.path(h))
	}
}

// Do returns the payload for k, computing it at most once across all
// concurrent callers: a cache hit returns immediately; the first
// caller of a missing key runs compute and stores the result; callers
// that arrive while that computation is in flight wait and share it.
// hit reports whether the payload came from the cache (memory, disk,
// or a shared in-flight computation) rather than this caller's own
// compute. A compute error is returned to every sharing caller and
// nothing is stored.
func (s *Store) Do(k Key, compute func() ([]byte, error)) (payload []byte, hit bool, err error) {
	h := k.Hash()
	s.mu.Lock()
	if e, ok := s.mem[h]; ok {
		s.touch(e)
		s.count(MetricHits, 1, trace.L("tier", "mem"))
		s.count(MetricBytesIn, uint64(len(e.payload)))
		p := e.payload
		s.mu.Unlock()
		return p, true, nil
	}
	if c, ok := s.flight[h]; ok {
		s.count(MetricDedup, 1)
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, false, c.err
		}
		return c.payload, true, nil
	}
	c := &call{done: make(chan struct{})}
	s.flight[h] = c
	s.mu.Unlock()

	// This caller owns the computation slot. Disk is probed outside the
	// lock; other callers for the same key queue on c.
	if s.dir != "" {
		if p, ok := s.readDisk(k, h); ok {
			s.mu.Lock()
			s.insertMem(h, p)
			s.count(MetricHits, 1, trace.L("tier", "disk"))
			s.count(MetricBytesIn, uint64(len(p)))
			delete(s.flight, h)
			s.mu.Unlock()
			c.payload = p
			close(c.done)
			return p, true, nil
		}
	}
	p, err := compute()
	s.mu.Lock()
	s.count(MetricMisses, 1)
	if err == nil {
		s.insertMem(h, p)
		s.count(MetricBytesOut, uint64(len(p)))
	}
	delete(s.flight, h)
	s.mu.Unlock()
	c.payload, c.err = p, err
	close(c.done)
	if err != nil {
		return nil, false, err
	}
	if s.dir != "" && !s.readOnly {
		if werr := s.writeDisk(k, h, p); werr != nil {
			s.mu.Lock()
			s.count(MetricErrors, 1)
			s.mu.Unlock()
		}
	}
	return p, false, nil
}

// --- memory tier (caller holds s.mu) ---

func (s *Store) insertMem(h Hash, payload []byte) {
	if s.memCap == 0 {
		return
	}
	if e, ok := s.mem[h]; ok {
		s.memBytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		s.touch(e)
	} else {
		e := &memEntry{hash: h, payload: payload}
		s.mem[h] = e
		s.pushFront(e)
		s.memBytes += int64(len(payload))
	}
	for s.memBytes > s.memCap && s.lruTail != nil {
		victim := s.lruTail
		s.removeMem(victim)
		s.count(MetricEvictions, 1)
	}
}

func (s *Store) removeMem(e *memEntry) {
	s.unlink(e)
	delete(s.mem, e.hash)
	s.memBytes -= int64(len(e.payload))
}

func (s *Store) touch(e *memEntry) {
	if s.lruHead == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *Store) pushFront(e *memEntry) {
	e.prev = nil
	e.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

func (s *Store) unlink(e *memEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.lruHead == e {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.lruTail == e {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// --- disk tier ---

// Entry layout (little-endian):
//
//	magic   [8]byte  "ECOCAS01" — format identity and version in one
//	keyLen  uint32
//	payLen  uint32
//	key     keyLen bytes (canonical Key serialization)
//	payload payLen bytes
//	sum     uint64   FNV-1a over everything above
//
// The trailing checksum catches truncation (file shorter than the
// declared sizes fails earlier, equal-length corruption fails here);
// the embedded key catches hash collisions and entries renamed across
// directories.
var diskMagic = [8]byte{'E', 'C', 'O', 'C', 'A', 'S', '0', '1'}

const diskHeaderLen = 8 + 4 + 4

func (s *Store) path(h Hash) string {
	hx := h.String()
	return filepath.Join(s.dir, hx[:2], hx+".cas")
}

func encodeEntry(k Key, payload []byte) []byte {
	key := k.appendCanonical(nil)
	b := make([]byte, 0, diskHeaderLen+len(key)+len(payload)+8)
	b = append(b, diskMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, key...)
	b = append(b, payload...)
	f := fnv.New64a()
	f.Write(b)
	return binary.LittleEndian.AppendUint64(b, f.Sum64())
}

var errCorrupt = errors.New("cas: corrupt entry")

// decodeEntry validates one on-disk entry against the key it should
// hold and returns its payload.
func decodeEntry(k Key, b []byte) ([]byte, error) {
	if len(b) < diskHeaderLen+8 || [8]byte(b[:8]) != diskMagic {
		return nil, errCorrupt
	}
	keyLen := binary.LittleEndian.Uint32(b[8:12])
	payLen := binary.LittleEndian.Uint32(b[12:16])
	want := diskHeaderLen + int64(keyLen) + int64(payLen) + 8
	if int64(len(b)) != want {
		return nil, errCorrupt
	}
	f := fnv.New64a()
	f.Write(b[:len(b)-8])
	if binary.LittleEndian.Uint64(b[len(b)-8:]) != f.Sum64() {
		return nil, errCorrupt
	}
	key := b[diskHeaderLen : diskHeaderLen+int(keyLen)]
	if string(key) != string(k.appendCanonical(nil)) {
		return nil, errCorrupt
	}
	payload := make([]byte, payLen)
	copy(payload, b[diskHeaderLen+int(keyLen):len(b)-8])
	return payload, nil
}

// readDisk loads and validates the entry for k. Invalid entries count
// as corrupt, are deleted (unless read-only) and report a miss.
func (s *Store) readDisk(k Key, h Hash) ([]byte, bool) {
	b, err := os.ReadFile(s.path(h))
	if err != nil {
		return nil, false // absent (or unreadable) is a plain miss
	}
	payload, err := decodeEntry(k, b)
	if err != nil {
		s.mu.Lock()
		s.count(MetricCorrupt, 1)
		s.mu.Unlock()
		if !s.readOnly {
			os.Remove(s.path(h))
		}
		return nil, false
	}
	return payload, true
}

// writeDisk persists the entry via temp file + rename, so readers only
// ever observe complete entries regardless of crashes mid-write.
func (s *Store) writeDisk(k Key, h Hash, payload []byte) error {
	p := s.path(h)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return err
	}
	b := encodeEntry(k, payload)
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}
