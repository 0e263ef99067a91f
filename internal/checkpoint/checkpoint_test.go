package checkpoint

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"teco/internal/tensor"
)

func testSnapshot(seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	vec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	s := &Snapshot{
		ConfigTag:   0xDEADBEEFCAFE,
		Seed:        seed,
		Step:        123,
		AdamStep:    1623,
		ActivatedAt: -1,
		RNGDraws:    987654,
		Params:      vec(257),
		Compute:     vec(257),
		AdamM:       vec(257),
		AdamV:       vec(257),
		PrevParams:  vec(257),
		PrevGrads:   vec(257),
	}
	for i := 0; i < 7; i++ {
		sm := Sample{Step: int64(i * 10), Loss: rng.Float64(), DBAActive: i > 3}
		sm.ParamDist = tensor.Distribution{Counts: [4]int64{int64(i), 2, 3, 4}}
		sm.GradDist = tensor.Distribution{Counts: [4]int64{5, 6, int64(i), 8}}
		s.Samples = append(s.Samples, sm)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSnapshot(7)
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", s, got)
	}
}

func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	// Flip a sample of bits across the wire image: every one must be
	// detected (CRC-16 detects all single-bit errors), decoding must never
	// return a silently different snapshot.
	s := testSnapshot(11)
	wire := s.Encode()
	for bit := 0; bit < len(wire)*8; bit += 97 {
		cp := make([]byte, len(wire))
		copy(cp, wire)
		cp[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(cp); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	wire := testSnapshot(13).Encode()
	for _, cut := range []int{1, 2, 3, 17, len(wire) / 2, len(wire) - 1} {
		if _, err := Decode(wire[:len(wire)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes went undetected", cut)
		}
	}
	if _, err := Decode(append(append([]byte{}, wire...), 0)); err == nil {
		t.Fatal("trailing garbage went undetected")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	wire := testSnapshot(17).Encode()
	wire[len(Magic)] = 99
	if _, err := Decode(wire); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestStoreSaveLoadRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(10); step <= 50; step += 10 {
		s := testSnapshot(step)
		s.Step = step
		if _, _, err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	files, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("retention kept %d files, want 2: %v", len(files), files)
	}
	got, info, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 50 || len(info.Skipped) != 0 {
		t.Fatalf("latest step = %d (skipped %v), want 50", got.Step, info.Skipped)
	}
}

func TestStoreFallsBackPastCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(10); step <= 30; step += 10 {
		s := testSnapshot(step)
		s.Step = step
		if _, _, err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	// Bit-flip the newest, truncate the middle: load must fall back to the
	// oldest intact snapshot and report both skips.
	if err := FlipBit(st.path(30), 12345); err != nil {
		t.Fatal(err)
	}
	if err := TruncateTail(st.path(20), 100); err != nil {
		t.Fatal(err)
	}
	got, info, err := st.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 10 {
		t.Fatalf("fell back to step %d, want 10", got.Step)
	}
	if len(info.Skipped) != 2 {
		t.Fatalf("skipped = %v, want the two damaged files", info.Skipped)
	}
}

func TestStoreEmptyAndMissing(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "fresh"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	if _, err := NewStore("", 0); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestSaveIsAtomic(t *testing.T) {
	// No temp files may survive a successful save.
	dir := t.TempDir()
	st, _ := NewStore(dir, 3)
	if _, _, err := st.Save(testSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestCountingSourceBitIdenticalAndFastForward(t *testing.T) {
	// The wrapped stream must equal the raw source stream.
	raw := rand.New(rand.NewSource(99))
	cs := NewCountingSource(99)
	wrapped := rand.New(cs)
	for i := 0; i < 1000; i++ {
		if raw.Int63() != wrapped.Int63() {
			t.Fatalf("stream diverged at draw %d", i)
		}
	}
	draws := cs.Draws()
	next := wrapped.Int63()

	// Fast-forwarding a fresh source to the recorded position must yield
	// the same next draw.
	cs2 := NewCountingSource(99)
	cs2.FastForward(draws)
	if got := rand.New(cs2).Int63(); got != next {
		t.Fatalf("fast-forwarded draw = %d, want %d", got, next)
	}
}

func TestChecksumDetectsWordFlip(t *testing.T) {
	v := []float32{1, 2, 3, 4, 5}
	a := Checksum(v)
	v[3] = math.Float32frombits(math.Float32bits(v[3]) ^ 1)
	if Checksum(v) == a {
		t.Fatal("single-bit word flip not reflected in checksum")
	}
}

func TestCorruptHarnessBounds(t *testing.T) {
	p := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(p, []byte{0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(p, 8); err == nil {
		t.Fatal("out-of-range bit accepted")
	}
	if err := TruncateTail(p, 2); err == nil {
		t.Fatal("over-length truncation accepted")
	}
	if err := FlipBit(p, 0); err != nil {
		t.Fatal(err)
	}
	buf, _ := os.ReadFile(p)
	if buf[0] != 0xFE {
		t.Fatalf("byte = %x, want FE", buf[0])
	}
}
