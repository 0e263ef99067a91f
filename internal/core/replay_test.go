package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"teco/internal/tensor"
)

func randomTensors(n int, seed int64) (*tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	old := tensor.New("old", n)
	upd := tensor.New("new", n)
	for i := 0; i < n; i++ {
		v := float32(rng.NormFloat64())
		old.Set(i, v)
		// Fine-tuning-sized update.
		upd.Set(i, v*(1+1e-6*float32(rng.NormFloat64())))
	}
	return old, upd
}

func TestReplayFullLineExact(t *testing.T) {
	old, upd := randomTensors(1024, 1)
	dev, stats, err := ReplayParameterUpdate(old, upd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < upd.Len(); i++ {
		if math.Float32bits(dev.At(i)) != math.Float32bits(upd.At(i)) {
			t.Fatalf("element %d: %x != %x", i, math.Float32bits(dev.At(i)), math.Float32bits(upd.At(i)))
		}
	}
	if stats.OnDemandTransfers != 0 {
		t.Fatalf("update protocol produced %d on-demand transfers", stats.OnDemandTransfers)
	}
	if stats.FlushData != stats.Lines {
		t.Fatalf("FlushData = %d, want one per line (%d)", stats.FlushData, stats.Lines)
	}
	if stats.SnoopEntries != 0 {
		t.Fatal("update protocol must not populate the snoop filter")
	}
	if stats.PayloadBytes != stats.Lines*64 {
		t.Fatalf("payload bytes = %d", stats.PayloadBytes)
	}
}

func TestReplayDBAMergeSemantics(t *testing.T) {
	old, upd := randomTensors(1024, 2)
	dev, stats, err := ReplayParameterUpdate(old, upd, Config{DBA: true, DirtyBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each device value must be: new low 2 bytes merged over old high 2.
	for i := 0; i < upd.Len(); i++ {
		ob := math.Float32bits(old.At(i))
		nb := math.Float32bits(upd.At(i))
		want := (ob & 0xFFFF0000) | (nb & 0x0000FFFF)
		if got := math.Float32bits(dev.At(i)); got != want {
			t.Fatalf("element %d: got %08x, want %08x (old %08x new %08x)", i, got, want, ob, nb)
		}
	}
	// Payload halved.
	if stats.PayloadBytes != stats.Lines*32 {
		t.Fatalf("payload bytes = %d, want %d", stats.PayloadBytes, stats.Lines*32)
	}
}

func TestReplayDBAExactWhenChangesAreSmall(t *testing.T) {
	// When updates only touch the low two bytes, DBA is lossless.
	old := tensor.New("old", 256)
	upd := tensor.New("new", 256)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 256; i++ {
		bits := rng.Uint32()
		old.Set(i, math.Float32frombits(bits))
		upd.Set(i, math.Float32frombits((bits&0xFFFF0000)|rng.Uint32()&0xFFFF))
	}
	dev, _, err := ReplayParameterUpdate(old, upd, Config{DBA: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if math.Float32bits(dev.At(i)) != math.Float32bits(upd.At(i)) {
			t.Fatalf("element %d lost data", i)
		}
	}
}

func TestReplayInvalidationOnDemand(t *testing.T) {
	// Tensor small enough to stay in the CPU LLC so every accelerator
	// read is an on-demand critical-path fill.
	old, upd := randomTensors(4096, 4)
	dev, stats, err := ReplayParameterUpdate(old, upd, Config{Invalidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OnDemandTransfers == 0 {
		t.Fatal("invalidation protocol must fetch on demand")
	}
	if stats.SnoopEntries == 0 {
		t.Fatal("invalidation protocol tracks sharers")
	}
	// Data still correct (full lines, no DBA in invalidation mode).
	for i := 0; i < upd.Len(); i++ {
		if math.Float32bits(dev.At(i)) != math.Float32bits(upd.At(i)) {
			t.Fatalf("element %d wrong", i)
		}
	}
}

func TestReplayMismatchedTensors(t *testing.T) {
	if _, _, err := ReplayParameterUpdate(tensor.New("a", 4), tensor.New("b", 8), Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestReplayGradientFlushUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	grads := tensor.New("g", 512)
	for i := 0; i < 512; i++ {
		grads.Set(i, float32(rng.NormFloat64()))
	}
	cpu, stats, err := ReplayGradientFlush(grads, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if math.Float32bits(cpu.At(i)) != math.Float32bits(grads.At(i)) {
			t.Fatalf("gradient %d corrupted", i)
		}
	}
	if stats.OnDemandTransfers != 0 {
		t.Fatal("update protocol gradients must not be on-demand")
	}
	if stats.FlushData != stats.Lines {
		t.Fatalf("pushes = %d, want %d", stats.FlushData, stats.Lines)
	}
	// Full 64-byte payloads — gradients are never DBA'd.
	if stats.PayloadBytes != stats.Lines*64 {
		t.Fatalf("payload = %d", stats.PayloadBytes)
	}
}

func TestReplayGradientFlushInvalidation(t *testing.T) {
	grads := tensor.New("g", 256)
	for i := 0; i < 256; i++ {
		grads.Set(i, float32(i))
	}
	cpu, stats, err := ReplayGradientFlush(grads, Config{Invalidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OnDemandTransfers == 0 {
		t.Fatal("invalidation gradients must be fetched on demand")
	}
	for i := 0; i < 256; i++ {
		if cpu.At(i) != grads.At(i) {
			t.Fatalf("gradient %d wrong", i)
		}
	}
}

// BenchmarkReplay times one round of the four functional replays — full,
// DBA-2, invalidation and gradient — on a seeded tensor pair of 2^14, 2^16
// and 2^18 words, and reports ns per cache line: flat across the sizes when
// no part of the protocol plane is superlinear in the tensor.
func BenchmarkReplay(b *testing.B) {
	updates := []Config{{}, {DBA: true, DirtyBytes: 2}, {Invalidation: true}}
	for _, log2 := range []int{14, 16, 18} {
		old, upd := randomTensors(1<<log2, 42)
		b.Run(fmt.Sprintf("words=2^%d", log2), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, cfg := range updates {
					if _, _, err := ReplayParameterUpdate(old, upd, cfg); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := ReplayGradientFlush(upd, Config{}); err != nil {
					b.Fatal(err)
				}
			}
			lines := float64(b.N) * float64(len(updates)+1) * float64(old.Lines())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
		})
	}
}
