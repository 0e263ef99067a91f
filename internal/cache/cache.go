// Package cache implements a set-associative, write-back cache with per-line
// MESI coherence state and LRU replacement. Instances model both the CPU's
// last-level cache in the gem5-avx configuration (Table II of the paper) and
// the accelerator-side giant cache, which the paper treats as a peer cache of
// the CPU cache inside the CXL coherent domain (§IV-A2).
package cache

import (
	"fmt"
	"math"

	"teco/internal/mem"
)

// State is a MESI coherence state.
type State uint8

const (
	// Invalid: the line is not present (or has been invalidated).
	Invalid State = iota
	// Shared: a clean copy that other caches may also hold.
	Shared
	// Exclusive: the only copy, clean.
	Exclusive
	// Modified: the only copy, dirty.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// line is one way of a set's tag array.
type line struct {
	Addr  mem.LineAddr
	State State
	// prev and next link the set's valid ways from least to most recently
	// used. Only tagSet.lru and tagSet.mru mark the ends, so a link out of
	// an end is never read.
	prev, next int32
}

// Eviction describes a line pushed out of the cache.
type Eviction struct {
	Addr mem.LineAddr
	// Dirty reports whether the victim was in Modified state (i.e. the
	// eviction is a writeback, not a silent drop).
	Dirty bool
}

// Config describes cache geometry.
type Config struct {
	Name string
	// SizeBytes is total capacity: a whole number of lines, divisible into
	// Ways-line sets, and a power of two of sets, as gem5 requires.
	SizeBytes int64
	// Ways is the associativity. Ways <= 0 means fully associative.
	Ways int
}

// Gem5L3 returns the paper's gem5-avx shared L3 geometry (Table II).
func Gem5L3() Config { return Config{Name: "L3", SizeBytes: 16 << 20, Ways: 64} }

// Cache is a set-associative tag array. It tracks only coherence metadata;
// data payloads live in the tensor/backing-store layers, which keeps the
// model fast enough to sweep billions of parameters.
//
// The tag contract, the same at every associativity:
//   - a new line takes the lowest free way of its set;
//   - a full set evicts its least recently used line, where Insert, Touch
//     and an Access hit are the uses, which is the order a per-use tick gives;
//   - FlushAll returns lines in (set, way) order;
//   - past a fixed header per set, storage is proportional to the lines
//     held, not to the capacity: a set's ways grow on demand, by doubling,
//     up to Ways (small sets share 4 KiB slab allocations), and the
//     address index is a mem.LineTable, one 16 KiB page per 4096-line
//     range holding a line, released when the range empties.
//
// Lookups, state changes, LRU updates and victim choice go through the
// address index and the per-set use list, so they cost O(1), never scan a
// set and never hash a line. The free-way search starts at the set's
// low-water mark, below which no way is free, so a set that fills in way
// order, or refills the hole it just lost, finds its way at once.
type Cache struct {
	ways int32
	sets []tagSet
	// where holds way+1 for each valid line: its way in its set.
	where mem.LineTable[int32]
	// slab is the unused tail of the last slab a set's ways were carved
	// from.
	slab []line

	// Statistics.
	hits, misses, evictions, writebacks int64
}

// tagSet is one set's ways plus the bookkeeping that keeps the tag contract
// free of scans.
type tagSet struct {
	// ways grows on demand up to Cache.ways; an Invalid way is a hole.
	ways []line
	// valid counts the valid ways.
	valid int32
	// free is the low-water mark of the free-way search: every way below it
	// is valid.
	free int32
	// lru and mru are the ends of the use list; meaningless when valid is 0.
	lru, mru int32
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%mem.LineSize != 0 {
		panic(fmt.Sprintf("cache %q: size %d is not a positive whole number of %d-byte lines", cfg.Name, cfg.SizeBytes, mem.LineSize))
	}
	lines := cfg.SizeBytes / mem.LineSize
	ways := int64(cfg.Ways)
	if ways <= 0 {
		ways = lines // fully associative
	}
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %q: %d lines not divisible by %d ways", cfg.Name, lines, ways))
	}
	if sets := lines / ways; sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %q: %d sets is not a power of two", cfg.Name, sets))
	}
	if ways > math.MaxInt32 {
		panic(fmt.Sprintf("cache %q: %d ways overflow a set's int32 way index", cfg.Name, ways))
	}
	return &Cache{ways: int32(ways), sets: make([]tagSet, lines/ways)}
}

func (c *Cache) setOf(a mem.LineAddr) *tagSet {
	return &c.sets[uint64(a)&uint64(len(c.sets)-1)]
}

// Lookup returns the current state of the line (Invalid if absent) without
// updating LRU or statistics.
func (c *Cache) Lookup(a mem.LineAddr) State {
	w := c.where.Get(a)
	if w == 0 {
		return Invalid
	}
	return c.setOf(a).ways[w-1].State
}

// Contains reports whether the line is present in a valid state.
func (c *Cache) Contains(a mem.LineAddr) bool { return c.Lookup(a).Valid() }

// Touch marks the line as most recently used. No-op when absent.
func (c *Cache) Touch(a mem.LineAddr) {
	if w := c.where.Get(a); w != 0 {
		c.setOf(a).touch(w - 1)
	}
}

// Insert places the line in state s, evicting an LRU victim if the set is
// full. It returns the eviction (if any). Inserting a line that is already
// present updates its state in place and returns no eviction.
func (c *Cache) Insert(a mem.LineAddr, s State) (Eviction, bool) {
	if !s.Valid() {
		panic("cache: inserting line in Invalid state")
	}
	set := c.setOf(a)
	if w := c.where.Get(a) - 1; w >= 0 {
		set.ways[w].State = s
		set.touch(w)
		return Eviction{}, false
	}
	var ev Eviction
	evicted := set.valid == c.ways
	if evicted {
		victim := &set.ways[set.lru]
		ev = Eviction{Addr: victim.Addr, Dirty: victim.State == Modified}
		c.evictions++
		if ev.Dirty {
			c.writebacks++
		}
		c.drop(set, set.lru)
	}
	w := c.freeWay(set)
	set.ways[w].Addr, set.ways[w].State = a, s
	set.push(w)
	set.valid++
	c.where.Set(a, w+1)
	return ev, evicted
}

// SetState transitions an existing line to state s. Setting Invalid removes
// the line (a silent drop — not counted as an eviction). Returns false when
// the line is absent.
func (c *Cache) SetState(a mem.LineAddr, s State) bool {
	w := c.where.Get(a) - 1
	if w < 0 {
		return false
	}
	if set := c.setOf(a); s == Invalid {
		c.drop(set, w)
	} else {
		set.ways[w].State = s
	}
	return true
}

// Access performs a load (write=false) or store (write=true) against the
// cache *without* coherence: hits update LRU; misses insert the line
// (Exclusive for loads, Modified for stores) and may evict. The coherence
// layer wraps this for protocol-accurate traffic; this raw form serves the
// access-path benchmark and tests.
func (c *Cache) Access(a mem.LineAddr, write bool) (hit bool, ev Eviction, evicted bool) {
	if w := c.where.Get(a) - 1; w >= 0 {
		c.hits++
		set := c.setOf(a)
		set.touch(w)
		if write {
			set.ways[w].State = Modified
		}
		return true, Eviction{}, false
	}
	c.misses++
	ns := Exclusive
	if write {
		ns = Modified
	}
	ev, evicted = c.Insert(a, ns)
	return false, ev, evicted
}

// FlushAll removes every valid line, returning all of them in deterministic
// (set, way) order with Dirty marking the writebacks. This models the
// once-per-iteration CPU cache flush that guarantees all updated parameters
// have been sent out (paper §IV-A2).
func (c *Cache) FlushAll() []Eviction {
	if c.where.Len() == 0 {
		return nil
	}
	out := make([]Eviction, 0, c.where.Len())
	for si := range c.sets {
		set := &c.sets[si]
		for _, l := range set.ways {
			if l.State.Valid() {
				dirty := l.State == Modified
				out = append(out, Eviction{Addr: l.Addr, Dirty: dirty})
				if dirty {
					c.writebacks++
				}
				c.evictions++
			}
		}
		*set = tagSet{ways: set.ways[:0]}
	}
	c.where.Reset()
	return out
}

// drop invalidates way w of set, which holds a valid line.
func (c *Cache) drop(set *tagSet, w int32) {
	c.where.Set(set.ways[w].Addr, 0)
	set.ways[w].State = Invalid
	set.unlink(w)
	set.valid--
	set.free = min(set.free, w)
}

// slabLines is the number of ways one slab allocation holds: 4 KiB.
const slabLines = 256

// freeWay returns the lowest free way of set s, growing the set when it has
// no hole. The caller fills it and pushes it onto the use list.
func (c *Cache) freeWay(s *tagSet) int32 {
	if int(s.valid) == len(s.ways) {
		if len(s.ways) == cap(s.ways) {
			s.ways = append(c.carve(min(int(c.ways), max(1, 2*cap(s.ways)))), s.ways...)
		}
		s.ways = append(s.ways, line{})
		s.free = int32(len(s.ways))
		return s.free - 1
	}
	for s.ways[s.free].State.Valid() {
		s.free++
	}
	s.free++
	return s.free - 1
}

// carve returns an empty slice with room for n ways. Sets grow by doubling
// and most sets of a large cache hold a line or two, so small chunks share
// slab allocations instead of costing one each.
func (c *Cache) carve(n int) []line {
	if n > len(c.slab) {
		c.slab = make([]line, max(n, slabLines))
	}
	chunk := c.slab[:0:n]
	c.slab = c.slab[n:]
	return chunk
}

// touch moves valid way w to the most recently used end of the use list.
func (s *tagSet) touch(w int32) {
	if w != s.mru {
		s.unlink(w)
		s.push(w)
	}
}

// push appends w at the most recently used end of the use list, which is
// empty only when valid is 0.
func (s *tagSet) push(w int32) {
	if s.valid == 0 {
		s.lru = w
	} else {
		s.ways[s.mru].next = w
		s.ways[w].prev = s.mru
	}
	s.mru = w
}

// unlink takes w out of the use list.
func (s *tagSet) unlink(w int32) {
	l := &s.ways[w]
	if w == s.lru {
		s.lru = l.next
	} else {
		s.ways[l.prev].next = l.next
	}
	if w == s.mru {
		s.mru = l.prev
	} else {
		s.ways[l.next].prev = l.prev
	}
}
