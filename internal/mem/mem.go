// Package mem models the physical address map shared by the CPU and the
// accelerator, including the giant-cache region that TECO maps into the CXL
// coherent domain. The paper exposes that region through a resizable Base
// Address Register (§IV-A1); the map allocates it directly, line-aligned,
// without BAR sizing.
//
// Addresses are byte addresses in a flat 64-bit physical space. All coherent
// traffic moves in 64-byte cache lines, matching both the gem5-avx cache
// configuration (Table II) and the CXL.cache transfer granularity.
package mem

import "fmt"

// LineSize is the coherence granularity in bytes (64-byte lines everywhere
// in the paper: gem5 caches, CXL.cache, the Aggregator input).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line returns the cache-line index containing a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// LineAddr is a cache-line-granular address (byte address >> 6).
type LineAddr uint64

// Addr returns the byte address of the first byte of the line.
func (l LineAddr) Addr() Addr { return Addr(l) << LineShift }

// LinesIn returns the number of cache lines covering n bytes starting at a
// line boundary.
func LinesIn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + LineSize - 1) / LineSize
}

// RegionKind labels what a region of the address map holds.
type RegionKind int

const (
	// RegionHostDRAM is ordinary CPU memory (gradients, optimizer states,
	// the master parameter copy in ZeRO-Offload).
	RegionHostDRAM RegionKind = iota
	// RegionGiantCache is the accelerator-memory slice mapped into the CXL
	// coherent domain ("giant cache", paper §II-B and §IV-A1).
	RegionGiantCache
	// RegionDeviceLocal is the non-coherent remainder of accelerator memory
	// (activations and other tensors, Fig 3).
	RegionDeviceLocal
)

// Region is a named, line-aligned interval of the address map.
type Region struct {
	Name  string
	Kind  RegionKind
	Base  Addr
	Bytes int64
}

// End returns one past the last byte of the region.
func (r Region) End() Addr { return r.Base + Addr(r.Bytes) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Map is the full address map. It doubles as the TECO "address registers"
// (paper §V-B): the Aggregator consults it to decide whether a written-back
// line belongs to the giant-cache coherent domain.
type Map struct {
	regions []Region // sorted by Base, non-overlapping
	next    Addr
}

// NewMap returns an empty address map allocating from address 0 upward.
func NewMap() *Map { return &Map{} }

// Allocate appends a new line-aligned region of at least bytes bytes and
// returns it. Allocation order is deterministic, which keeps trace replay
// reproducible.
func (m *Map) Allocate(name string, kind RegionKind, bytes int64) Region {
	if bytes <= 0 {
		panic(fmt.Sprintf("mem: allocating %q with %d bytes", name, bytes))
	}
	aligned := LinesIn(bytes) * LineSize
	r := Region{Name: name, Kind: kind, Base: m.next, Bytes: aligned}
	m.regions = append(m.regions, r)
	m.next += Addr(aligned)
	return r
}

// InGiantCache reports whether the line is mapped to the coherent giant
// cache — the check the CXL home agent performs on every LLC writeback
// (paper Fig 8: "mapped in the Giant cache?").
func (m *Map) InGiantCache(l LineAddr) bool {
	i := m.find(l.Addr())
	return i >= 0 && m.regions[i].Kind == RegionGiantCache
}

// find returns the index of the region containing a, or -1. It is a binary
// search for the first region ending past a, written out rather than
// through sort.Search: every coherence operation asks.
func (m *Map) find(a Addr) int {
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.regions[mid].End() > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(m.regions) && m.regions[lo].Contains(a) {
		return lo
	}
	return -1
}

// GiantCacheBytes returns the configured giant-cache capacity: the sum of
// all giant-cache regions. The paper sizes it to hold all parameters plus
// the gradient buffer so that there are no capacity/conflict misses.
func (m *Map) GiantCacheBytes() int64 {
	var n int64
	for _, r := range m.regions {
		if r.Kind == RegionGiantCache {
			n += r.Bytes
		}
	}
	return n
}
