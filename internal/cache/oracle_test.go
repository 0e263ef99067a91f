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
	c := &scanCache{sets: make([][]scanLine, lines/ways), nsets: uint64(lines / ways)}
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
	c.evictions++
	if ev.Dirty {
		c.writebacks++
	}
	set[victim] = scanLine{Addr: a, State: s, lru: c.tick}
	return ev, true
}

func (c *scanCache) SetState(a mem.LineAddr, s State) bool {
	set := c.setOf(a)
	for i := range set {
		if set[i].State.Valid() && set[i].Addr == a {
			set[i].State = s
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
				set[i].State = Invalid
			}
		}
	}
	return out
}

// oracleGeometries are the geometries the oracle sequences run over: fully
// associative, and 2-, 4- and 64-way with several sets.
var oracleGeometries = []Config{
	{Name: "full-4", SizeBytes: 4 * mem.LineSize},
	{Name: "full-64", SizeBytes: 64 * mem.LineSize},
	{Name: "2-way", SizeBytes: 16 * mem.LineSize, Ways: 2},
	{Name: "4-way", SizeBytes: 32 * mem.LineSize, Ways: 4},
	{Name: "64-way", SizeBytes: 256 * mem.LineSize, Ways: 64},
}

// TestCacheMatchesScanOracle drives seeded random operation sequences
// through Cache and the scanning reference in lockstep, over fully
// associative and set-associative geometries and an address range three
// times the capacity, so sets fill, evict and get holes punched by
// invalidation. Every return value, every FlushAll slice, the counters and
// the way each line sits in must agree after every operation.
func TestCacheMatchesScanOracle(t *testing.T) {
	for _, cfg := range oracleGeometries {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				evicted, punched := matchScanOracle(t, cfg, oracleOps(cfg, seed))
				if evicted == 0 || punched == 0 {
					t.Fatalf("sequence made %d evictions and %d invalidations; the oracle needs both", evicted, punched)
				}
			})
		}
	}
}

// FuzzCacheVsScan is TestCacheMatchesScanOracle over fuzzer-chosen
// sequences: the first byte picks one of oracleGeometries, every further
// three bytes one operation, up to maxFuzzOps (see decodeOps). It is
// seeded with the oracle test's sequences, cut to that length.
func FuzzCacheVsScan(f *testing.F) {
	for gi, cfg := range oracleGeometries {
		for seed := int64(1); seed <= 8; seed++ {
			ops := oracleOps(cfg, seed)
			f.Add(encodeOps(gi, ops[:min(len(ops), maxFuzzOps)]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if cfg, ops, ok := decodeOps(data); ok {
			matchScanOracle(t, cfg, ops)
		}
	})
}

// opKind names a tag-array operation of a lockstep sequence.
type opKind uint8

const (
	opInsert opKind = iota
	opLookup
	opContains
	opTouch
	opSetState
	opAccess
	opFlushAll
	numOpKinds
)

// cacheOp is one operation of a lockstep sequence: State is Insert's and
// SetState's argument, Write is Access's.
type cacheOp struct {
	Kind  opKind
	Addr  mem.LineAddr
	State State
	Write bool
}

// oracleOps returns the seeded sequence of 40 operations per line of
// capacity (at least 2000) over three capacities of addresses, with a
// FlushAll every 4 capacities on average, so sets fill between flushes.
func oracleOps(cfg Config, seed int64) []cacheOp {
	rng := rand.New(rand.NewSource(seed))
	lines := cfg.SizeBytes / mem.LineSize
	ops := make([]cacheOp, max(2000, int(40*lines)))
	for i := range ops {
		op := cacheOp{Addr: mem.LineAddr(rng.Int63n(3 * lines))}
		switch k := rng.Intn(100); {
		case rng.Int63n(4*lines) == 0:
			op.Kind = opFlushAll
		case k < 30:
			op.Kind, op.State = opInsert, State(1+rng.Intn(3))
		case k < 45:
			op.Kind = opLookup
		case k < 50:
			op.Kind = opContains
		case k < 60:
			op.Kind = opTouch
		case k < 75:
			op.Kind, op.State = opSetState, State(rng.Intn(4))
		default:
			op.Kind, op.Write = opAccess, rng.Intn(2) == 0
		}
		ops[i] = op
	}
	return ops
}

// encodeOps is the fuzz encoding of geometry gi and ops: a byte for the
// geometry, then per operation kind | state<<3 | write<<7 and the address
// as a big-endian uint16.
func encodeOps(gi int, ops []cacheOp) []byte {
	out := []byte{byte(gi)}
	for _, op := range ops {
		b := byte(op.Kind) | byte(op.State)<<3
		if op.Write {
			b |= 1 << 7
		}
		out = append(out, b, byte(op.Addr>>8), byte(op.Addr))
	}
	return out
}

// maxFuzzOps bounds a fuzz input's sequence. The fuzzer minimizes every
// input that reaches new code; past a few thousand operations that takes
// longer than a short fuzz run lasts.
const maxFuzzOps = 1024

// decodeOps inverts encodeOps for any input: kinds and geometries wrap,
// addresses wrap to three capacities, Insert's state is never Invalid, and
// operations past maxFuzzOps are ignored. It reports false for an empty
// input.
func decodeOps(data []byte) (Config, []cacheOp, bool) {
	if len(data) == 0 {
		return Config{}, nil, false
	}
	cfg := oracleGeometries[int(data[0])%len(oracleGeometries)]
	span := uint64(3 * cfg.SizeBytes / mem.LineSize)
	var ops []cacheOp
	for rest := data[1:]; len(rest) >= 3 && len(ops) < maxFuzzOps; rest = rest[3:] {
		op := cacheOp{
			Kind:  opKind(rest[0]&7) % numOpKinds,
			State: State(rest[0] >> 3 & 3),
			Write: rest[0]>>7 == 1,
			Addr:  mem.LineAddr((uint64(rest[1])<<8 | uint64(rest[2])) % span),
		}
		if op.Kind == opInsert && op.State == Invalid {
			op.State = Modified
		}
		ops = append(ops, op)
	}
	return cfg, ops, true
}

func (o cacheOp) String() string {
	switch o.Kind {
	case opInsert:
		return fmt.Sprintf("Insert(%d, %v)", o.Addr, o.State)
	case opLookup:
		return fmt.Sprintf("Lookup(%d)", o.Addr)
	case opContains:
		return fmt.Sprintf("Contains(%d)", o.Addr)
	case opTouch:
		return fmt.Sprintf("Touch(%d)", o.Addr)
	case opSetState:
		return fmt.Sprintf("SetState(%d, %v)", o.Addr, o.State)
	case opAccess:
		return fmt.Sprintf("Access(%d, %v)", o.Addr, o.Write)
	default:
		return "FlushAll()"
	}
}

// matchScanOracle runs ops through a Cache and a scanCache of geometry cfg
// in lockstep and fails at the first operation after which a return value,
// a FlushAll slice, a counter, the number of lines held or the way of a
// held line differ. It returns the evictions and the invalidations of held
// lines the sequence made.
func matchScanOracle(t *testing.T, cfg Config, ops []cacheOp) (evicted, punched int) {
	c, ref := New(cfg), newScanCache(cfg)
	for i, op := range ops {
		a := op.Addr
		var got, want any
		switch op.Kind {
		case opFlushAll:
			got, want = c.FlushAll(), ref.FlushAll()
		case opInsert:
			ev, ok := c.Insert(a, op.State)
			rev, rok := ref.Insert(a, op.State)
			got, want = []any{ev, ok}, []any{rev, rok}
			if rok {
				evicted++
			}
		case opLookup:
			got, want = c.Lookup(a), ref.Lookup(a)
		case opContains:
			got, want = c.Contains(a), ref.Contains(a)
		case opTouch:
			c.Touch(a)
			ref.Touch(a)
		case opSetState:
			got, want = c.SetState(a, op.State), ref.SetState(a, op.State)
			if op.State == Invalid && want == true {
				punched++
			}
		case opAccess:
			hit, ev, ok := c.Access(a, op.Write)
			rhit, rev, rok := ref.Access(a, op.Write)
			got, want = []any{hit, ev, ok}, []any{rhit, rev, rok}
			if rok {
				evicted++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d %v = %v, reference %v", i, op, got, want)
		}
		if g, w := [4]int64{c.hits, c.misses, c.evictions, c.writebacks}, [4]int64{ref.hits, ref.misses, ref.evictions, ref.writebacks}; g != w {
			t.Fatalf("op %d %v: hits/misses/evictions/writebacks %v, reference %v", i, op, g, w)
		}
		held := 0
		for _, set := range ref.sets {
			for w, l := range set {
				if !l.State.Valid() {
					continue
				}
				held++
				if cw := c.where.Get(l.Addr); int(cw) != w+1 {
					t.Fatalf("op %d %v: line %d in way %d (held %v), reference way %d", i, op, l.Addr, cw-1, cw != 0, w)
				}
			}
		}
		if c.where.Len() != held {
			t.Fatalf("op %d %v: %d lines held, reference %d", i, op, c.where.Len(), held)
		}
	}
	return evicted, punched
}
