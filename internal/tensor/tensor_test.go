package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	ts := New("w", 100)
	if ts.Name() != "w" || ts.Len() != 100 {
		t.Fatal("accessors")
	}
	if ts.Bytes() != 400 {
		t.Fatalf("bytes = %d", ts.Bytes())
	}
	if ts.Lines() != 7 { // ceil(400/64)
		t.Fatalf("lines = %d", ts.Lines())
	}
	ts.Set(3, 1.5)
	if ts.At(3) != 1.5 {
		t.Fatal("set/at")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", -1)
}

func TestCloneAndCopyFrom(t *testing.T) {
	a := FromSlice("a", []float32{1, 2, 3})
	b := a.Clone()
	b.Set(0, 9)
	if a.At(0) != 1 {
		t.Fatal("clone must not share storage")
	}
	c := New("c", 3)
	c.CopyFrom(a)
	if c.At(2) != 3 {
		t.Fatal("CopyFrom failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched CopyFrom")
		}
	}()
	c.CopyFrom(New("d", 5))
}

func TestEncodeDecodeLine(t *testing.T) {
	ts := New("w", 40) // 2.5 lines
	for i := 0; i < 40; i++ {
		ts.Set(i, float32(i)*0.25)
	}
	for line := int64(0); line < ts.Lines(); line++ {
		buf := ts.EncodeLine(line)
		if len(buf) != 64 {
			t.Fatalf("line buf = %d bytes", len(buf))
		}
		dst := New("w2", 40)
		dst.DecodeLine(line, buf)
		for i := int(line) * 16; i < int(line+1)*16 && i < 40; i++ {
			if dst.At(i) != ts.At(i) {
				t.Fatalf("element %d: %v != %v", i, dst.At(i), ts.At(i))
			}
		}
	}
}

func TestDecodeLineBadBufPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("w", 16).DecodeLine(0, make([]byte, 10))
}

// Property: encode/decode of a full line round-trips element-exactly.
func TestLineRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := New("w", 16)
		for i := 0; i < 16; i++ {
			ts.Set(i, rng.Float32()*2000-1000)
		}
		dst := New("w2", 16)
		dst.DecodeLine(0, ts.EncodeLine(0))
		for i := 0; i < 16; i++ {
			if math.Float32bits(dst.At(i)) != math.Float32bits(ts.At(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	mk := func(bits uint32) float32 { return math.Float32frombits(bits) }
	base := uint32(0x3F800000) // 1.0
	cases := []struct {
		old, new float32
		want     ChangeClass
	}{
		{mk(base), mk(base), Unchanged},
		{mk(base), mk(base ^ 0x00000001), LastByte},
		{mk(base), mk(base ^ 0x000000FF), LastByte},
		{mk(base), mk(base ^ 0x00000100), LastTwoBytes},
		{mk(base), mk(base ^ 0x0000FF01), LastTwoBytes},
		{mk(base), mk(base ^ 0x00010000), Other},
		{mk(base), mk(base ^ 0x80000000), Other}, // sign flip
		{1.0, -1.0, Other},
	}
	for _, c := range cases {
		if got := Classify(c.old, c.new); got != c.want {
			t.Errorf("Classify(%x,%x) = %v, want %v",
				math.Float32bits(c.old), math.Float32bits(c.new), got, c.want)
		}
	}
}

func TestChangeClassString(t *testing.T) {
	if LastTwoBytes.String() != "last-two-bytes" || Unchanged.String() != "unchanged" {
		t.Fatal("strings")
	}
	if ChangeClass(9).String() == "" {
		t.Fatal("unknown class renders")
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	old := FromSlice("o", []float32{1, 2, 3, 4})
	nw := old.Clone()
	// leave 0 unchanged; flip LSB of 1; flip byte1 of 2; flip sign of 3.
	nw.Set(1, math.Float32frombits(math.Float32bits(nw.At(1))^1))
	nw.Set(2, math.Float32frombits(math.Float32bits(nw.At(2))^0x100))
	nw.Set(3, -nw.At(3))
	for i := 0; i < old.Len(); i++ {
		d.Observe(old.At(i), nw.At(i))
	}
	if d.Total() != 4 || d.Changed() != 3 {
		t.Fatalf("total=%d changed=%d", d.Total(), d.Changed())
	}
	if d.FracUnchanged() != 0.25 {
		t.Fatalf("unchanged frac = %v", d.FracUnchanged())
	}
	third := 1.0 / 3.0
	for _, c := range []ChangeClass{LastByte, LastTwoBytes, Other} {
		if got := d.FracOfChanged(c); math.Abs(got-third) > 1e-12 {
			t.Fatalf("frac %v = %v", c, got)
		}
	}
	var d2 Distribution
	d2.Add(d)
	d2.Add(d)
	if d2.Total() != 8 {
		t.Fatal("Add failed")
	}
}

func TestDistributionEmptySafe(t *testing.T) {
	var d Distribution
	if d.FracOfChanged(LastByte) != 0 || d.FracUnchanged() != 0 {
		t.Fatal("empty distribution must return 0 fractions")
	}
}

// TestMantissaDriftClassification demonstrates the Fig 2 mechanism: a small
// relative update to an FP32 parameter usually only disturbs the low
// mantissa bytes.
func TestMantissaDriftClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Distribution
	for i := 0; i < 10000; i++ {
		w := float32(rng.NormFloat64())
		// A fine-tuning-sized update: ~1e-6 relative.
		upd := w * (1 + 1e-7*float32(rng.NormFloat64()))
		d.Observe(w, upd)
	}
	lowTwo := d.FracOfChanged(LastByte) + d.FracOfChanged(LastTwoBytes)
	if lowTwo < 0.95 {
		t.Fatalf("tiny updates should stay in low mantissa bytes; got %.2f", lowTwo)
	}
}
