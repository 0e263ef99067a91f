package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"teco/internal/mem"
)

// scanCache is the reference tag array: one fixed slice of ways per set,
// a per-use tick for LRU, and a linear scan of the set on every operation.
// It is the obviously-correct statement of the tag contract that Cache
// implements without scanning.
type scanCache struct {
	sets  [][]scanLine
	nsets uint64
	tick  uint64
	where map[mem.LineAddr]int

	hits, misses, evictions, writebacks int64
}

type scanLine struct {
	Addr  mem.LineAddr
	State State
	lru   uint64
}

func newScanCache(cfg Config) *scanCache {
	lines := cfg.SizeBytes / mem.LineSize
	ways := int64(cfg.Ways)
	if ways <= 0 {
		ways = lines
	}
	c := &scanCache{sets: make([][]scanLine, lines/ways), nsets: uint64(lines / ways), where: map[mem.LineAddr]int{}}
	for i := range c.sets {
		c.sets[i] = make([]scanLine, ways)
	}
	return c
}

func (c *scanCache) setOf(a mem.LineAddr) []scanLine { return c.sets[uint64(a)%c.nsets] }

func (c *scanCache) Lookup(a mem.LineAddr) State {
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			return set[i].State
		}
	}
	return Invalid
}

func (c *scanCache) Contains(a mem.LineAddr) bool { return c.Lookup(a).Valid() }

func (c *scanCache) Touch(a mem.LineAddr) {
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			c.tick++
			set[i].lru = c.tick
			return
		}
	}
}

func (c *scanCache) Insert(a mem.LineAddr, s State) (Eviction, bool) {
	set := c.setOf(a)
	c.tick++
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			set[i].State = s
			set[i].lru = c.tick
			return Eviction{}, false
		}
	}
	for i := range set {
		if !set[i].State.Valid() {
			set[i] = scanLine{Addr: a, State: s, lru: c.tick}
			c.where[a] = i
			return Eviction{}, false
		}
	}
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
	set[victim] = scanLine{Addr: a, State: s, lru: c.tick}
	c.where[a] = victim
	return ev, true
}

func (c *scanCache) SetState(a mem.LineAddr, s State) bool {
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			set[i].State = s
			if s == Invalid {
				delete(c.where, a)
			}
			return true
		}
	}
	return false
}

func (c *scanCache) Access(a mem.LineAddr, write bool) (bool, Eviction, bool) {
	if c.Lookup(a).Valid() {
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
	ev, evicted := c.Insert(a, ns)
	return false, ev, evicted
}

func (c *scanCache) FlushAll() []Eviction {
	var out []Eviction
	for _, set := range c.sets {
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

// TestCacheMatchesScanOracle drives seeded random operation sequences
// through Cache and the scanning reference in lockstep, over fully
// associative and set-associative geometries and an address range three
// times the capacity, so sets fill, evict and get holes punched by
// invalidation. Every return value, every FlushAll slice, the counters and
// the way each line sits in must agree after every operation.
func TestCacheMatchesScanOracle(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "full-4", SizeBytes: 4 * mem.LineSize},
		{Name: "full-64", SizeBytes: 64 * mem.LineSize},
		{Name: "2-way", SizeBytes: 16 * mem.LineSize, Ways: 2},
		{Name: "4-way", SizeBytes: 32 * mem.LineSize, Ways: 4},
		{Name: "64-way", SizeBytes: 256 * mem.LineSize, Ways: 64},
	} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				matchScanOracle(t, cfg, seed)
			})
		}
	}
}

// matchScanOracle runs one sequence of 40 operations per line of capacity
// (at least 2000), with a FlushAll every 4 capacities on average, so sets
// fill between flushes.
func matchScanOracle(t *testing.T, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c, ref := New(cfg), newScanCache(cfg)
	lines := cfg.SizeBytes / mem.LineSize
	states := []State{Invalid, Shared, Exclusive, Modified}
	var evicted, punched int
	for i := 0; i < max(2000, int(40*lines)); i++ {
		a := mem.LineAddr(rng.Int63n(3 * lines))
		var op string
		var got, want any
		switch k := rng.Intn(100); {
		case rng.Int63n(4*lines) == 0:
			op = "FlushAll()"
			got, want = c.FlushAll(), ref.FlushAll()
		case k < 30:
			s := states[1+rng.Intn(3)]
			op = fmt.Sprintf("Insert(%d, %v)", a, s)
			ev, ok := c.Insert(a, s)
			rev, rok := ref.Insert(a, s)
			got, want = []any{ev, ok}, []any{rev, rok}
			if rok {
				evicted++
			}
		case k < 45:
			op = fmt.Sprintf("Lookup(%d)", a)
			got, want = c.Lookup(a), ref.Lookup(a)
		case k < 50:
			op = fmt.Sprintf("Contains(%d)", a)
			got, want = c.Contains(a), ref.Contains(a)
		case k < 60:
			op = fmt.Sprintf("Touch(%d)", a)
			c.Touch(a)
			ref.Touch(a)
		case k < 75:
			s := states[rng.Intn(4)]
			op = fmt.Sprintf("SetState(%d, %v)", a, s)
			got, want = c.SetState(a, s), ref.SetState(a, s)
			if s == Invalid && want == true {
				punched++
			}
		default:
			write := rng.Intn(2) == 0
			op = fmt.Sprintf("Access(%d, %v)", a, write)
			hit, ev, ok := c.Access(a, write)
			rhit, rev, rok := ref.Access(a, write)
			got, want = []any{hit, ev, ok}, []any{rhit, rev, rok}
			if rok {
				evicted++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d %s = %v, reference %v", i, op, got, want)
		}
		if g, w := [4]int64{c.hits, c.misses, c.evictions, c.writebacks}, [4]int64{ref.hits, ref.misses, ref.evictions, ref.writebacks}; g != w {
			t.Fatalf("op %d %s: hits/misses/evictions/writebacks %v, reference %v", i, op, g, w)
		}
		if len(c.where) != len(ref.where) {
			t.Fatalf("op %d %s: %d lines held, reference %d", i, op, len(c.where), len(ref.where))
		}
		for l, w := range ref.where {
			if cw, ok := c.where[l]; !ok || int(cw) != w {
				t.Fatalf("op %d %s: line %d in way %d (held %v), reference way %d", i, op, l, cw, ok, w)
			}
		}
	}
	if evicted == 0 || punched == 0 {
		t.Fatalf("sequence made %d evictions and %d invalidations; the oracle needs both", evicted, punched)
	}
}
