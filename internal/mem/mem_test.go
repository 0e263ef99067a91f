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
	if m.next != 192 {
		t.Fatalf("total = %d", m.next)
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

	for _, c := range []struct {
		a    Addr
		want string
	}{{params.Base + 17, "params"}, {host.Base, "optstates"}, {dev.End() - 1, "activations"}} {
		if i := m.find(c.a); i < 0 || m.regions[i].Name != c.want {
			t.Fatalf("find(%d) = %d, want region %q", c.a, i, c.want)
		}
	}
	if i := m.find(dev.End()); i >= 0 {
		t.Fatalf("find past the end = %d, want -1", i)
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

func TestHostDDR4StreamTime(t *testing.T) {
	d := HostDDR4()
	// 128 MB at 128 GB/s = 1 ms.
	got := d.StreamTime(128_000_000)
	want := sim.Millisecond
	if got < want*99/100 || got > want*101/100 {
		t.Fatalf("stream time = %v, want ~1ms", got)
	}
}
