package checkpoint

import (
	"math"
	"math/rand"
	"testing"

	"teco/internal/parallel"
)

// TestGuardSumDetectsEveryBitFlip: CRC-32C catches any single-bit error, at
// every word position of a chunk including both ends, and the sum of a
// sub-slice view depends only on the words it covers.
func TestGuardSumDetectsEveryBitFlip(t *testing.T) {
	if GuardSum(nil) != 0 || GuardSum([]float32{}) != 0 {
		t.Fatal("empty tensor must sum to 0")
	}
	rng := rand.New(rand.NewSource(11))
	v := make([]float32, 1000)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	want := GuardSum(v)
	for _, i := range []int{0, 1, 499, 998, 999} {
		for bit := 0; bit < 32; bit++ {
			orig := v[i]
			v[i] = math.Float32frombits(math.Float32bits(orig) ^ 1<<bit)
			if GuardSum(v) == want {
				t.Fatalf("flip of word %d bit %d undetected", i, bit)
			}
			v[i] = orig
		}
	}
	if GuardSum(v) != want {
		t.Fatal("restored tensor must sum to the original value")
	}
	if GuardSum(v[100:300]) != GuardSum(append([]float32(nil), v[100:300]...)) {
		t.Fatal("a view and a copy of the same words must agree")
	}
}

// TestChecksumChunkZeroAlloc pins the per-chunk guard sum allocation-free —
// it runs inside the fused ADAM epilogue's steady-state loop.
func TestChecksumChunkZeroAlloc(t *testing.T) {
	v := make([]float32, 16384)
	lo, hi := parallel.ChunkBounds(0, len(v))
	if n := testing.AllocsPerRun(20, func() { _ = GuardSum(v[lo:hi]) }); n != 0 {
		t.Fatalf("allocated %v times per run, want 0", n)
	}
}

// BenchmarkGuardSum sizes the in-memory guard (hardware CRC-32C over a
// direct byte view) against the CRC-16 Checksum every wire and disk format
// keeps, on one fixed-quantum chunk.
func BenchmarkGuardSum(b *testing.B) {
	v := make([]float32, 16384)
	for i := range v {
		v[i] = float32(i)
	}
	b.Run("crc32c", func(b *testing.B) {
		b.SetBytes(int64(4 * len(v)))
		for i := 0; i < b.N; i++ {
			_ = GuardSum(v)
		}
	})
	b.Run("crc16", func(b *testing.B) {
		b.SetBytes(int64(4 * len(v)))
		for i := 0; i < b.N; i++ {
			_ = Checksum(v)
		}
	})
}
