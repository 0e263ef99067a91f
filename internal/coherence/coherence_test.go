package coherence

import (
	"math/rand"
	"testing"

	"teco/internal/cache"
	"teco/internal/mem"
)

// testDomain builds a domain with a params giant-cache region and a plain
// host region, returning the domain and the two regions.
func testDomain(mode Mode) (*Domain, mem.Region, mem.Region, *[]Transfer) {
	m := mem.NewMap()
	params := m.Allocate("params", mem.RegionGiantCache, 64*1024)
	host := m.Allocate("host", mem.RegionHostDRAM, 64*1024)
	var log []Transfer
	d := NewDomain(Config{
		Mode:       mode,
		AddrMap:    m,
		OnTransfer: func(tr Transfer) { log = append(log, tr) },
	})
	// A small LLC, so a test can evict from it.
	d.cpu = cache.New(cache.Config{Name: "llc", SizeBytes: 8 << 10, Ways: 8})
	return d, params, host, &log
}

func TestSideOpposite(t *testing.T) {
	if CPU.Opposite() != Accelerator || Accelerator.Opposite() != CPU {
		t.Fatal("opposite")
	}
}

// TestFig5ParameterUpdateFlow walks the exact state sequence of Figure 5.
func TestFig5ParameterUpdateFlow(t *testing.T) {
	d, params, _, log := testDomain(Update)
	l := params.Base.Line()

	// Initial condition: giant cache has the parameter copy, G_S = E,
	// C_S = I.
	d.Seed(l, Accelerator)
	if d.giant.Lookup(l) != cache.Exclusive {
		t.Fatalf("G_S = %v, want E", d.giant.Lookup(l))
	}
	if d.cpu.Lookup(l).Valid() {
		t.Fatal("C_S should start I")
	}

	// (1)(2): CPU updates the parameter line. ReadOwn then the update push.
	d.Write(l, CPU)
	if got := d.msgs[MsgReadOwn]; got != 1 {
		t.Fatalf("ReadOwn msgs = %d, want 1", got)
	}
	if got := d.msgs[MsgGoFlush]; got != 1 {
		t.Fatalf("Go_Flush msgs = %d, want 1", got)
	}
	if got := d.msgs[MsgFlushData]; got != 1 {
		t.Fatalf("FlushData msgs = %d, want 1", got)
	}
	// (3): after the approved flush, C_S = S and the peer copy is S.
	if d.cpu.Lookup(l) != cache.Shared {
		t.Fatalf("C_S = %v, want S", d.cpu.Lookup(l))
	}
	if d.giant.Lookup(l) != cache.Shared {
		t.Fatalf("G_S = %v, want S", d.giant.Lookup(l))
	}
	// The push is NOT on-demand: it overlaps with producer compute.
	if len(*log) != 1 || (*log)[0].OnDemand {
		t.Fatalf("log = %+v", *log)
	}

	// CPU flushes C: C_S S -> I, G_S S -> E.
	d.FlushCPU()
	if d.cpu.Lookup(l).Valid() {
		t.Fatal("C_S should be I after the flush")
	}
	if d.giant.Lookup(l) != cache.Exclusive {
		t.Fatalf("G_S = %v, want E after the CPU flush", d.giant.Lookup(l))
	}

	// Accelerator reads C: G_S remains E, no link traffic.
	before := len(*log)
	if onDemand := d.Read(l, Accelerator); onDemand {
		t.Fatal("accelerator read of pushed parameter must not be on-demand")
	}
	if d.giant.Lookup(l) != cache.Exclusive {
		t.Fatal("G_S must remain E on accelerator read")
	}
	if len(*log) != before {
		t.Fatal("accelerator read caused link traffic")
	}
	if err := d.CheckInvariants([]mem.LineAddr{l}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidationOnDemand verifies the stock-CXL behaviour the paper
// measures as a 56.6% average training-time increase: the consumer's read
// triggers the data transfer on the critical path.
func TestInvalidationOnDemand(t *testing.T) {
	d, params, _, log := testDomain(Invalidation)
	l := params.Base.Line()
	d.Seed(l, Accelerator)

	// CPU updates the parameter: peer invalidated, no data pushed.
	d.Write(l, CPU)
	if d.giant.Lookup(l).Valid() {
		t.Fatal("invalidation mode must invalidate the peer copy")
	}
	if d.cpu.Lookup(l) != cache.Modified {
		t.Fatalf("C_S = %v, want M", d.cpu.Lookup(l))
	}
	if d.msgs[MsgInvalidate] != 1 {
		t.Fatalf("Invalidate msgs = %d", d.msgs[MsgInvalidate])
	}
	if len(*log) != 0 {
		t.Fatal("no data should move at update time in invalidation mode")
	}

	// Accelerator read: on-demand transfer, critical path.
	if onDemand := d.Read(l, Accelerator); !onDemand {
		t.Fatal("read must be on-demand in invalidation mode")
	}
	if len(*log) != 1 || !(*log)[0].OnDemand {
		t.Fatalf("log = %+v", *log)
	}
	total, od := d.transfers, d.onDemand
	if total != 1 || od != 1 {
		t.Fatalf("transfers = %d/%d", total, od)
	}
	if err := d.CheckInvariants([]mem.LineAddr{l}); err != nil {
		t.Fatal(err)
	}
}

// TestGradientPushAcceleratorToCPU: gradients flow the other way (Fig 6 (3)):
// the accelerator produces, the CPU consumes.
func TestGradientPushAcceleratorToCPU(t *testing.T) {
	d, params, _, log := testDomain(Update)
	l := params.Base.Line() + 10

	d.Write(l, Accelerator)
	if d.giant.Lookup(l) != cache.Shared {
		t.Fatalf("G_S = %v, want S after push", d.giant.Lookup(l))
	}
	// CPU cache did not hold the line; it "simply ignores the update
	// message" — data lands in host memory, not the CPU cache.
	if d.cpu.Lookup(l).Valid() {
		t.Fatal("CPU cache should not allocate on ignored update")
	}
	if len(*log) != 1 || (*log)[0].From != Accelerator || (*log)[0].To != CPU {
		t.Fatalf("log = %+v", *log)
	}
	// CPU read after the push costs nothing on the link.
	if onDemand := d.Read(l, CPU); onDemand {
		t.Fatal("CPU read after push must not be on-demand")
	}
}

// TestCPUCacheAcceptsUpdateWhenResident: if the CPU cache does hold the
// line, the update refreshes it in Shared state.
func TestCPUCacheAcceptsUpdateWhenResident(t *testing.T) {
	d, params, _, _ := testDomain(Update)
	l := params.Base.Line() + 3
	d.Read(l, CPU) // CPU now holds the line
	d.Write(l, Accelerator)
	if d.cpu.Lookup(l) != cache.Shared {
		t.Fatalf("CPU copy = %v, want S", d.cpu.Lookup(l))
	}
}

// TestRepeatedUpdatesSameLine: "a cache line containing multiple parameters
// may be transferred multiple times" — each write pushes again.
func TestRepeatedUpdatesSameLine(t *testing.T) {
	d, params, _, _ := testDomain(Update)
	l := params.Base.Line()
	d.Seed(l, Accelerator)
	for i := 0; i < 5; i++ {
		d.Write(l, CPU)
	}
	if d.msgs[MsgFlushData] != 5 {
		t.Fatalf("FlushData = %d, want 5", d.msgs[MsgFlushData])
	}
	// Ownership is acquired once; later writes reuse the Shared copy.
	if d.msgs[MsgReadOwn] != 1 {
		t.Fatalf("ReadOwn = %d, want 1", d.msgs[MsgReadOwn])
	}
}

// TestNonDomainLinesUseStockMESI: host-DRAM lines never ride the update
// protocol even when the domain is in Update mode.
func TestNonDomainLinesUseStockMESI(t *testing.T) {
	d, _, host, log := testDomain(Update)
	l := host.Base.Line()
	d.Write(l, CPU)
	if d.cpu.Lookup(l) != cache.Modified {
		t.Fatalf("state = %v, want M", d.cpu.Lookup(l))
	}
	if len(*log) != 0 {
		t.Fatal("host line write should not cross the link")
	}
}

// TestSnoopFilterOnlyInInvalidationMode: the paper's claim that the giant
// cache needs no snoop filter under the update protocol.
func TestSnoopFilterOnlyInInvalidationMode(t *testing.T) {
	du, params, _, _ := testDomain(Update)
	for i := 0; i < 100; i++ {
		du.Write(params.Base.Line()+mem.LineAddr(i), CPU)
	}
	if du.SnoopEntries() != 0 {
		t.Fatalf("update mode tracked %d snoop entries, want 0", du.SnoopEntries())
	}

	di, params2, _, _ := testDomain(Invalidation)
	for i := 0; i < 100; i++ {
		di.Write(params2.Base.Line()+mem.LineAddr(i), CPU)
	}
	if di.SnoopEntries() == 0 {
		t.Fatal("invalidation mode must track sharers")
	}
}

func TestFlushCPUPushesRemainingAndRestoresExclusive(t *testing.T) {
	d, params, host, _ := testDomain(Update)
	pl := params.Base.Line()
	hl := host.Base.Line()
	d.Seed(pl, Accelerator)
	d.Write(pl, CPU) // pushed; CPU=S, giant=S
	d.Write(hl, CPU) // host line, dirty in CPU cache

	hostWB := d.FlushCPU()
	if len(hostWB) != 1 || hostWB[0].Addr != hl {
		t.Fatalf("host writebacks = %+v", hostWB)
	}
	if d.cpu.Contains(pl) || d.cpu.Contains(hl) {
		t.Fatal("CPU cache not empty after flush")
	}
	// Fig 5: "If the CPU evicts C or flushes all the cache lines, C_S
	// transits to I from S and G_S transits to E from S."
	if d.giant.Lookup(pl) != cache.Exclusive {
		t.Fatalf("G_S = %v, want E after flush", d.giant.Lookup(pl))
	}
}

func TestFlushCPUInvalidationModeTransfersDirtyDomainLines(t *testing.T) {
	d, params, _, log := testDomain(Invalidation)
	pl := params.Base.Line()
	d.Seed(pl, Accelerator)
	d.Write(pl, CPU) // CPU=M, giant invalidated
	d.FlushCPU()
	if len(*log) != 1 {
		t.Fatalf("flush should move the dirty domain line once, log=%+v", *log)
	}
}

func TestSetMode(t *testing.T) {
	d, params, _, _ := testDomain(Update)
	if d.mode != Update {
		t.Fatal("mode")
	}
	d.mode = Invalidation
	l := params.Base.Line()
	d.Seed(l, Accelerator)
	d.Write(l, CPU)
	if d.cpu.Lookup(l) != cache.Modified {
		t.Fatal("after switching to Invalidation, writes must follow MESI")
	}
}

func TestNewDomainDefaults(t *testing.T) {
	m := mem.NewMap()
	m.Allocate("p", mem.RegionGiantCache, 1<<20)
	d := NewDomain(Config{Mode: Update, AddrMap: m})
	if d.cpu == nil || d.giant == nil {
		t.Fatal("defaults not installed")
	}
	// The default giant cache holds exactly the mapped region: its lines
	// fit without an eviction, and one more line evicts.
	lines := mem.LineAddr(1 << 20 / mem.LineSize)
	for l := mem.LineAddr(0); l < lines; l++ {
		if _, evicted := d.giant.Insert(l, cache.Exclusive); evicted {
			t.Fatalf("giant cache evicted at line %d, want room for the %d-line region", l, lines)
		}
	}
	if _, evicted := d.giant.Insert(lines, cache.Exclusive); !evicted {
		t.Fatal("giant cache holds more than the mapped region")
	}
}

func TestNewDomainNilMapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDomain(Config{})
}

// TestProtocolInvariantsRandomWalk drives random operations in both modes
// and checks single-writer / exclusive-means-exclusive invariants after
// every step.
func TestProtocolInvariantsRandomWalk(t *testing.T) {
	for name, mode := range map[string]Mode{"update": Update, "invalidation": Invalidation} {
		t.Run(name, func(t *testing.T) {
			d, params, host, _ := testDomain(mode)
			rng := rand.New(rand.NewSource(7))
			lines := make([]mem.LineAddr, 0, 40)
			for i := 0; i < 20; i++ {
				lines = append(lines, params.Base.Line()+mem.LineAddr(i))
				lines = append(lines, host.Base.Line()+mem.LineAddr(i))
			}
			for _, l := range lines[:10] {
				d.Seed(l, Accelerator)
			}
			for step := 0; step < 20000; step++ {
				l := lines[rng.Intn(len(lines))]
				side := Side(rng.Intn(2))
				switch rng.Intn(3) {
				case 0:
					d.Write(l, side)
				case 1:
					d.Read(l, side)
				case 2:
					if rng.Intn(50) == 0 {
						d.FlushCPU()
					}
				}
				if err := d.CheckInvariants(lines); err != nil {
					t.Fatalf("step %d (%v on %v by %v): %v", step, mode, l, side, err)
				}
			}
		})
	}
}

// TestUpdateModeKeepsCopiesCoherent: after any CPU write sequence followed
// by a flush, the accelerator holds every written parameter line (the data
// consistency the training loop relies on at CXLFENCE).
func TestUpdateModeKeepsCopiesCoherent(t *testing.T) {
	d, params, _, _ := testDomain(Update)
	rng := rand.New(rand.NewSource(11))
	written := map[mem.LineAddr]bool{}
	for i := 0; i < 2000; i++ {
		l := params.Base.Line() + mem.LineAddr(rng.Intn(256))
		d.Write(l, CPU)
		written[l] = true
	}
	d.FlushCPU()
	for l := range written {
		if !d.giant.Contains(l) {
			t.Fatalf("line %d missing from giant cache after flush", l)
		}
		if d.giant.Lookup(l) != cache.Exclusive {
			t.Fatalf("line %d = %v, want E", l, d.giant.Lookup(l))
		}
	}
}

// TestNewDomainAllocs pins the cost of building a default domain — the gem5
// L3 plus a fully associative giant cache over a 2^16-word tensor, as every
// replay builds one — as an allocation count: the caches allocate for the
// lines they hold, not for their capacity.
func TestNewDomainAllocs(t *testing.T) {
	m := mem.NewMap()
	m.Allocate("params", mem.RegionGiantCache, 4<<16)
	if n := testing.AllocsPerRun(20, func() { NewDomain(Config{Mode: Update, AddrMap: m}) }); n > 16 {
		t.Fatalf("NewDomain allocates %v times, want <= 16", n)
	}
}
