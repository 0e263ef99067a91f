package mem

import (
	"testing"
	"testing/quick"

	"teco/internal/sim"
)

func TestLineConversions(t *testing.T) {
	if LineSize != 1<<LineShift {
		t.Fatal("LineShift inconsistent with LineSize")
	}
	a := Addr(130)
	if a.Line() != 2 {
		t.Fatalf("line of 130 = %d, want 2", a.Line())
	}
	if LineAddr(2).Addr() != 128 {
		t.Fatalf("addr of line 2 = %d, want 128", LineAddr(2).Addr())
	}
}

func TestLinesIn(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {1000, 16}}
	for _, c := range cases {
		if got := LinesIn(c.bytes); got != c.want {
			t.Errorf("LinesIn(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// Property: every byte address round-trips through its line: the line's base
// address is <= a and within LineSize bytes.
func TestLineRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw >> 1) // keep away from the very top to avoid +LineSize overflow
		base := a.Line().Addr()
		return base <= a && a < base+LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapAllocateAlignsAndOrders(t *testing.T) {
	m := NewMap()
	r1 := m.Allocate("params", RegionGiantCache, 100) // rounds to 128
	r2 := m.Allocate("grads", RegionGiantCache, 64)
	if r1.Bytes != 128 {
		t.Fatalf("r1.Bytes = %d, want 128 (line aligned)", r1.Bytes)
	}
	if r2.Base != 128 {
		t.Fatalf("r2.Base = %d, want 128", r2.Base)
	}
	if m.TotalBytes() != 192 {
		t.Fatalf("total = %d", m.TotalBytes())
	}
	if m.GiantCacheBytes() != 192 {
		t.Fatalf("giant cache bytes = %d", m.GiantCacheBytes())
	}
}

func TestMapLookup(t *testing.T) {
	m := NewMap()
	params := m.Allocate("params", RegionGiantCache, 4096)
	host := m.Allocate("optstates", RegionHostDRAM, 4096)
	dev := m.Allocate("activations", RegionDeviceLocal, 4096)

	if r, ok := m.Lookup(params.Base + 17); !ok || r.Name != "params" {
		t.Fatalf("lookup in params failed: %v %v", r, ok)
	}
	if r, ok := m.Lookup(host.Base); !ok || r.Kind != RegionHostDRAM {
		t.Fatalf("lookup host failed: %v %v", r, ok)
	}
	if r, ok := m.Lookup(dev.End() - 1); !ok || r.Kind != RegionDeviceLocal {
		t.Fatalf("lookup dev end failed: %v %v", r, ok)
	}
	if _, ok := m.Lookup(dev.End()); ok {
		t.Fatal("lookup past the end should miss")
	}
}

func TestInGiantCache(t *testing.T) {
	m := NewMap()
	gc := m.Allocate("params", RegionGiantCache, 1024)
	other := m.Allocate("host", RegionHostDRAM, 1024)
	if !m.InGiantCache(gc.Base.Line()) {
		t.Fatal("giant-cache line not recognized")
	}
	if m.InGiantCache(other.Base.Line()) {
		t.Fatal("host line misclassified as giant cache")
	}
}

func TestAllocatePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMap().Allocate("bad", RegionHostDRAM, 0)
}

func TestRegionKindString(t *testing.T) {
	if RegionGiantCache.String() != "giant-cache" {
		t.Fatal(RegionGiantCache.String())
	}
	if RegionKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestDRAMTiming(t *testing.T) {
	d := V100HBM2()
	lt := d.LineTransferTime()
	// 64 B / 900 GB/s ~= 71 ps.
	if lt < 60*sim.Picosecond || lt > 90*sim.Picosecond {
		t.Fatalf("HBM2 line time = %v", lt)
	}
	rd := d.Read()
	if rd <= d.AccessLatency {
		t.Fatalf("read time %v must include transfer", rd)
	}
	d.Write()
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("counters = %d/%d", d.Reads(), d.Writes())
	}
	d.Reset()
	if d.Reads() != 0 || d.Writes() != 0 {
		t.Fatal("reset failed")
	}
}

// The paper's §VIII-D claim: the Disaggregator's read-modify-write
// amplification is invisible because accelerator DRAM bandwidth is ~56x the
// PCIe 3.0 link bandwidth. Check the bandwidth gap our models encode.
func TestBandwidthGapSupportsDisaggregatorClaim(t *testing.T) {
	hbm := V100HBM2()
	pcie := 16e9
	if hbm.BytesPerSecond/pcie < 40 {
		t.Fatalf("HBM:PCIe ratio = %.1f, want >40x", hbm.BytesPerSecond/pcie)
	}
	// Even tripling per-line DRAM traffic (read + merge + write), the DRAM
	// service time per line must stay far under the link's 4 ns/line.
	perLine := hbm.LineTransferTime() * 3
	if perLine >= 1*sim.Nanosecond {
		t.Fatalf("3x line traffic = %v, want << 4ns link slot", perLine)
	}
}

func TestHostDDR4StreamTime(t *testing.T) {
	d := HostDDR4()
	// 128 MB at 128 GB/s = 1 ms.
	got := d.StreamTime(128_000_000)
	want := sim.Millisecond
	if got < want*99/100 || got > want*101/100 {
		t.Fatalf("stream time = %v, want ~1ms", got)
	}
}

func TestBARSizeFor(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{1, 1 << 20},
		{1 << 20, 1 << 20},
		{(1 << 20) + 1, 1 << 21},
		{817 << 20, 1 << 30},  // Bert-large's Table III giant cache fits a 1 GiB BAR
		{2069 << 20, 4 << 30}, // T5-large's fits a 4 GiB BAR
		{(4 << 30) - 1, 4 << 30},
	}
	for _, c := range cases {
		if got := BARSizeFor(c.in); got != c.want {
			t.Errorf("BARSizeFor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestConfigureGiantCacheBAR(t *testing.T) {
	m := NewMap()
	const v100 = int64(32) << 30
	r, err := m.ConfigureGiantCacheBAR("params", 1336<<20, v100, 8<<30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != RegionGiantCache {
		t.Fatal("region kind")
	}
	if r.Bytes != 2<<30 { // 1336 MiB rounds to a 2 GiB BAR
		t.Fatalf("BAR size = %d", r.Bytes)
	}
	if !m.InGiantCache(r.Base.Line()) {
		t.Fatal("BAR region must be coherent")
	}
	// Too big: a 44 GB parameter set cannot be mapped on a 32 GB device.
	if _, err := NewMap().ConfigureGiantCacheBAR("p", 44<<30, v100, 0); err == nil {
		t.Fatal("oversized BAR must fail")
	}
	if _, err := NewMap().ConfigureGiantCacheBAR("p", 0, v100, 0); err == nil {
		t.Fatal("zero-size BAR must fail")
	}
}
