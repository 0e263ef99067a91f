// Package cache implements a set-associative, write-back cache with per-line
// MESI coherence state and LRU replacement. Instances model both the CPU's
// last-level cache in the gem5-avx configuration (Table II of the paper) and
// the accelerator-side giant cache, which the paper treats as a peer cache of
// the CPU cache inside the CXL coherent domain (§IV-A2).
package cache

import (
	"fmt"

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

// Line is one cache line's tag-array entry.
type Line struct {
	Addr  mem.LineAddr
	State State
	// lru is a per-set use stamp; larger = more recently used.
	lru uint64
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
	// SizeBytes is total capacity; must be a multiple of Ways*LineSize.
	SizeBytes int64
	// Ways is the associativity. Ways <= 0 means fully associative.
	Ways int
}

// Gem5L3 returns the paper's gem5-avx shared L3 geometry (Table II).
func Gem5L3() Config { return Config{Name: "L3", SizeBytes: 16 << 20, Ways: 64} }

// Cache is a set-associative tag array. It tracks only coherence metadata;
// data payloads live in the tensor/backing-store layers, which keeps the
// model fast enough to sweep billions of parameters.
type Cache struct {
	cfg   Config
	sets  [][]Line
	nsets uint64
	tick  uint64
	// index for O(1) lookup: line address -> set slot.
	where map[mem.LineAddr]int

	// Statistics.
	hits, misses, evictions, writebacks int64
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / mem.LineSize
	if lines <= 0 {
		panic(fmt.Sprintf("cache %q: size %d too small", cfg.Name, cfg.SizeBytes))
	}
	ways := int64(cfg.Ways)
	if ways <= 0 {
		ways = lines // fully associative
	}
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %q: %d lines not divisible by %d ways", cfg.Name, lines, ways))
	}
	nsets := lines / ways
	c := &Cache{
		cfg:   cfg,
		sets:  make([][]Line, nsets),
		nsets: uint64(nsets),
		where: make(map[mem.LineAddr]int, lines),
	}
	for i := range c.sets {
		c.sets[i] = make([]Line, ways)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Lines returns total line capacity.
func (c *Cache) Lines() int64 { return c.cfg.SizeBytes / mem.LineSize }

func (c *Cache) setOf(a mem.LineAddr) []Line {
	return c.sets[uint64(a)%c.nsets]
}

// Lookup returns the current state of the line (Invalid if absent) without
// updating LRU or statistics.
func (c *Cache) Lookup(a mem.LineAddr) State {
	if _, ok := c.where[a]; !ok {
		return Invalid
	}
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			return set[i].State
		}
	}
	return Invalid
}

// Contains reports whether the line is present in a valid state.
func (c *Cache) Contains(a mem.LineAddr) bool { return c.Lookup(a).Valid() }

// Touch marks the line as most recently used. No-op when absent.
func (c *Cache) Touch(a mem.LineAddr) {
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			c.tick++
			set[i].lru = c.tick
			return
		}
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
	c.tick++
	// Already present: update state + LRU.
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			set[i].State = s
			set[i].lru = c.tick
			return Eviction{}, false
		}
	}
	// Free slot?
	for i := range set {
		if !set[i].State.Valid() {
			set[i] = Line{Addr: a, State: s, lru: c.tick}
			c.where[a] = i
			return Eviction{}, false
		}
	}
	// Evict LRU.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ev := Eviction{Addr: set[victim].Addr, Dirty: set[victim].State == Modified}
	delete(c.where, set[victim].Addr)
	c.evictions++
	if ev.Dirty {
		c.writebacks++
	}
	set[victim] = Line{Addr: a, State: s, lru: c.tick}
	c.where[a] = victim
	return ev, true
}

// SetState transitions an existing line to state s. Setting Invalid removes
// the line (a silent drop — not counted as an eviction). Returns false when
// the line is absent.
func (c *Cache) SetState(a mem.LineAddr, s State) bool {
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			if s == Invalid {
				set[i].State = Invalid
				delete(c.where, a)
			} else {
				set[i].State = s
			}
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) against the
// cache *without* coherence: hits update LRU; misses insert the line
// (Exclusive for loads, Modified for stores) and may evict. The coherence
// layer wraps this for protocol-accurate traffic; this raw form serves the
// access-path benchmark and tests.
func (c *Cache) Access(a mem.LineAddr, write bool) (hit bool, ev Eviction, evicted bool) {
	st := c.Lookup(a)
	if st.Valid() {
		c.hits++
		c.Touch(a)
		if write {
			c.SetState(a, Modified)
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
	var out []Eviction
	for si := range c.sets {
		set := c.sets[si]
		for i := range set {
			if set[i].State.Valid() {
				dirty := set[i].State == Modified
				out = append(out, Eviction{Addr: set[i].Addr, Dirty: dirty})
				if dirty {
					c.writebacks++
				}
				c.evictions++
				delete(c.where, set[i].Addr)
				set[i].State = Invalid
			}
		}
	}
	return out
}

// ValidLines returns the number of currently valid lines.
func (c *Cache) ValidLines() int { return len(c.where) }

// Stats returns (hits, misses, evictions, writebacks).
func (c *Cache) Stats() (hits, misses, evictions, writebacks int64) {
	return c.hits, c.misses, c.evictions, c.writebacks
}

// ResetStats zeroes counters, keeping contents.
func (c *Cache) ResetStats() { c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0 }
