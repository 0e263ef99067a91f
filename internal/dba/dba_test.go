package dba

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"teco/internal/mem"
)

func TestRegisterPayloadBytes(t *testing.T) {
	if (Register{}).PayloadBytes() != 64 {
		t.Fatal("inactive => full line")
	}
	if (Register{Active: true, DirtyBytes: 2}).PayloadBytes() != 32 {
		t.Fatal("2 dirty bytes => 32-byte payload")
	}
	if (Register{Active: true, DirtyBytes: 1}).PayloadBytes() != 16 {
		t.Fatal("1 dirty byte => 16-byte payload")
	}
}

// makeLine builds a 64-byte line of 16 FP32 values.
func makeLine(vals [16]float32) []byte {
	line := make([]byte, mem.LineSize)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(line[i*4:], math.Float32bits(v))
	}
	return line
}

func TestAggregateTakesLeastSignificantBytes(t *testing.T) {
	line := make([]byte, mem.LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	got := AppendAggregate(nil, line, 2)
	if len(got) != 32 {
		t.Fatalf("payload = %d bytes", len(got))
	}
	// Word w occupies bytes 4w..4w+3; its least-significant two bytes in
	// little-endian order are 4w and 4w+1.
	for w := 0; w < WordsPerLine; w++ {
		if got[2*w] != byte(4*w) || got[2*w+1] != byte(4*w+1) {
			t.Fatalf("word %d: payload bytes %d,%d", w, got[2*w], got[2*w+1])
		}
	}
}

func TestDisaggregateMerge(t *testing.T) {
	oldVals := [16]float32{}
	newVals := [16]float32{}
	for i := range oldVals {
		oldVals[i] = float32(i) + 0.5
		newVals[i] = oldVals[i] + 1e-6 // mantissa-only change
	}
	oldLine := makeLine(oldVals)
	newLine := makeLine(newVals)

	payload := AppendAggregate(nil, newLine, 2)
	rec := DisaggregateInto(make([]byte, mem.LineSize), oldLine, payload, 2)

	// The reconstructed line must carry the new low bytes and the old
	// high bytes of every word.
	for w := 0; w < WordsPerLine; w++ {
		if rec[4*w] != newLine[4*w] || rec[4*w+1] != newLine[4*w+1] {
			t.Fatalf("word %d low bytes not updated", w)
		}
		if rec[4*w+2] != oldLine[4*w+2] || rec[4*w+3] != oldLine[4*w+3] {
			t.Fatalf("word %d high bytes overwritten", w)
		}
	}
	// old must be untouched.
	if !bytes.Equal(oldLine, makeLine(oldVals)) {
		t.Fatal("Disaggregate mutated its input")
	}
}

// Property: when a parameter's change is confined to its least-significant
// n bytes, Aggregate+Disaggregate reconstructs the new line exactly.
func TestLosslessWhenChangeConfinedProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		oldLine := make([]byte, mem.LineSize)
		rng.Read(oldLine)
		newLine := make([]byte, mem.LineSize)
		copy(newLine, oldLine)
		// Mutate only the low n bytes of each word.
		for w := 0; w < WordsPerLine; w++ {
			for b := 0; b < n; b++ {
				newLine[w*4+b] = byte(rng.Intn(256))
			}
		}
		rec := DisaggregateInto(make([]byte, mem.LineSize), oldLine, AppendAggregate(nil, newLine, n), n)
		return bytes.Equal(rec, newLine)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reconstruction always equals (new low bytes | old high bytes),
// for arbitrary old/new lines — the approximation semantics the accuracy
// experiments rely on.
func TestMergeSemanticsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		oldLine := make([]byte, mem.LineSize)
		newLine := make([]byte, mem.LineSize)
		rng.Read(oldLine)
		rng.Read(newLine)
		rec := DisaggregateInto(make([]byte, mem.LineSize), oldLine, AppendAggregate(nil, newLine, n), n)
		for w := 0; w < WordsPerLine; w++ {
			for b := 0; b < 4; b++ {
				want := oldLine[w*4+b]
				if b < n {
					want = newLine[w*4+b]
				}
				if rec[w*4+b] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyBytes4IsFullLine(t *testing.T) {
	line := make([]byte, mem.LineSize)
	rand.New(rand.NewSource(1)).Read(line)
	payload := AppendAggregate(nil, line, 4)
	if !bytes.Equal(payload, line) {
		t.Fatal("n=4 aggregation must be the identity")
	}
	zero := make([]byte, mem.LineSize)
	if !bytes.Equal(DisaggregateInto(make([]byte, mem.LineSize), zero, payload, 4), line) {
		t.Fatal("n=4 disaggregation must fully overwrite")
	}
}

// TestMergeInPlace: MergeWords, the in-place merge the trainer runs on
// float32 words, agrees with the Disaggregator's line merge.
func TestMergeInPlace(t *testing.T) {
	oldLine := make([]byte, mem.LineSize)
	newLine := make([]byte, mem.LineSize)
	rng := rand.New(rand.NewSource(9))
	rng.Read(oldLine)
	rng.Read(newLine)
	dst := make([]float32, WordsPerLine)
	src := make([]float32, WordsPerLine)
	for w := range dst {
		dst[w] = math.Float32frombits(binary.LittleEndian.Uint32(oldLine[w*WordSize:]))
		src[w] = math.Float32frombits(binary.LittleEndian.Uint32(newLine[w*WordSize:]))
	}
	MergeWords(dst, src, 2, 1)
	want := DisaggregateInto(make([]byte, mem.LineSize), oldLine, AppendAggregate(nil, newLine, 2), 2)
	for w := range dst {
		if got := math.Float32bits(dst[w]); got != binary.LittleEndian.Uint32(want[w*WordSize:]) {
			t.Fatalf("word %d: MergeWords %08x disagrees with DisaggregateInto", w, got)
		}
	}
}

func TestAggregatePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { AppendAggregate(nil, make([]byte, 10), 2) },
		func() { AppendAggregate(nil, make([]byte, 64), 0) },
		func() { AppendAggregate(nil, make([]byte, 64), 5) },
		func() { DisaggregateInto(make([]byte, mem.LineSize), make([]byte, 64), make([]byte, 5), 2) },
		func() { DisaggregateInto(make([]byte, mem.LineSize), make([]byte, 10), make([]byte, 32), 2) },
		func() { DisaggregateInto(make([]byte, mem.LineSize), make([]byte, 64), make([]byte, 32), 9) },
		func() { DisaggregateInto(make([]byte, 10), make([]byte, 64), make([]byte, 32), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestControllerActivation(t *testing.T) {
	c := NewController(-1, 0) // defaults: 500 steps, 2 bytes
	if c.ActAfterSteps != DefaultActAfterSteps {
		t.Fatalf("default act_aft_steps = %d", c.ActAfterSteps)
	}
	if c.Register.DirtyBytes != DefaultDirtyBytes {
		t.Fatalf("default dirty_bytes = %d", c.Register.DirtyBytes)
	}
	for step := 0; step < 500; step++ {
		if c.CheckActivation(step) {
			t.Fatalf("DBA active at step %d, before act_aft_steps", step)
		}
	}
	if !c.CheckActivation(500) {
		t.Fatal("DBA must activate at step 500")
	}
	if c.ActivatedAt() != 500 {
		t.Fatalf("activatedAt = %d", c.ActivatedAt())
	}
	if !c.Register.Active || !c.CheckActivation(501) {
		t.Fatal("DBA must stay active")
	}
}

func TestControllerImmediateActivation(t *testing.T) {
	c := NewController(0, 2)
	if !c.CheckActivation(0) {
		t.Fatal("act_aft_steps=0 must activate at step 0")
	}
}

func TestLatencyConstants(t *testing.T) {
	// §VIII-D: Aggregator 1.28 ns, Disaggregator 1.126 ns, modelled 1 ns;
	// both must be under the ~4 ns per-line link slot so pipelining hides
	// them.
	if AggregatorLatencyPs != 1280 || DisaggregatorLatencyPs != 1126 {
		t.Fatal("synthesis latencies changed")
	}
	if ModelledLatency.Nanoseconds() != 1 {
		t.Fatal("modelled latency must be 1ns")
	}
	if AggregatorLatencyPs >= 4000 || DisaggregatorLatencyPs >= 4000 {
		t.Fatal("latencies must amortize under the 4ns line slot")
	}
}
