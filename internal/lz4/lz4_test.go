package lz4

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte) []byte {
	t.Helper()
	c := Compress(nil, data)
	d, err := Decompress(nil, c, 0)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(d, data) {
		t.Fatalf("roundtrip mismatch: %d vs %d bytes", len(d), len(data))
	}
	return c
}

func TestEmpty(t *testing.T) {
	c := Compress(nil, nil)
	if len(c) != 0 {
		t.Fatalf("empty input -> %d bytes", len(c))
	}
	d, err := Decompress(nil, c, 0)
	if err != nil || len(d) != 0 {
		t.Fatal("empty roundtrip")
	}
}

func TestTinyInputs(t *testing.T) {
	for n := 1; n < 32; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		roundTrip(t, data)
	}
}

func TestHighlyCompressible(t *testing.T) {
	data := bytes.Repeat([]byte("abcd"), 10000)
	c := roundTrip(t, data)
	if len(c) >= len(data)/10 {
		t.Fatalf("repetitive data compressed to %d/%d", len(c), len(data))
	}
	if Ratio(data) < 0.9 {
		t.Fatalf("ratio = %v", Ratio(data))
	}
}

func TestZeros(t *testing.T) {
	data := make([]byte, 100000)
	c := roundTrip(t, data)
	if len(c) >= 1000 {
		t.Fatalf("zeros compressed to %d", len(c))
	}
}

func TestIncompressibleRandom(t *testing.T) {
	data := make([]byte, 100000)
	rand.New(rand.NewSource(1)).Read(data)
	c := roundTrip(t, data)
	if bound := len(data) + len(data)/255 + 16; len(c) > bound {
		t.Fatalf("compressed %d > bound %d", len(c), bound)
	}
	if Ratio(data) > 0.01 {
		t.Fatalf("random data should not compress; ratio %v", Ratio(data))
	}
}

func TestText(t *testing.T) {
	data := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	c := roundTrip(t, data)
	if float64(len(c)) > 0.2*float64(len(data)) {
		t.Fatalf("text compressed to only %d/%d", len(c), len(data))
	}
}

func TestLongMatchesAndLiterals(t *testing.T) {
	// Exercise the 15+ length extension paths on both sides.
	var data []byte
	rng := rand.New(rand.NewSource(2))
	lit := make([]byte, 1000) // 1000 literals (needs extension bytes)
	rng.Read(lit)
	data = append(data, lit...)
	data = append(data, bytes.Repeat([]byte{0xAB}, 5000)...) // long match
	data = append(data, lit...)                              // far back-reference
	roundTrip(t, data)
}

func TestOverlappingMatch(t *testing.T) {
	// Offset 1 with long match: the classic RLE-through-LZ4 case.
	data := append([]byte{7}, bytes.Repeat([]byte{7}, 300)...)
	roundTrip(t, data)
}

// TestParameterDataRatiosMatchTableVIII: FP32 parameter snapshots from a
// converged model are nearly incompressible (paper Table VIII: 0-5% for
// GPT-2/Albert/Bert), because mantissa bytes are high-entropy.
func TestParameterDataRatiosMatchTableVIII(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := make([]byte, 0, 400000)
	buf := make([]byte, 4)
	for i := 0; i < 100000; i++ {
		v := float32(rng.NormFloat64() * 0.05)
		binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
		params = append(params, buf...)
	}
	r := Ratio(params)
	if r > 0.25 {
		t.Fatalf("trained-parameter ratio = %.3f, expect near-incompressible (paper: 0-5%%)", r)
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	good := Compress(nil, []byte(strings.Repeat("hello world ", 100)))
	cases := [][]byte{
		good[:1],
		{0x00, 0x01},            // literal-only with wrong trailing bytes... actually token 0x00 -> 0 literals then match with short offset
		{0xF0},                  // extended literal length, missing bytes
		{0x1F, 'a', 0x00, 0x00}, // zero offset
		{0x1F, 'a', 0x09, 0x00}, // offset beyond output
	}
	for i, c := range cases {
		if _, err := Decompress(nil, c, 0); err == nil {
			t.Errorf("case %d: corrupt input decoded successfully", i)
		}
	}
}

func TestDecompressSizeLimit(t *testing.T) {
	data := bytes.Repeat([]byte{1}, 10000)
	c := Compress(nil, data)
	if _, err := Decompress(nil, c, 100); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if _, err := Decompress(nil, c, 10000); err != nil {
		t.Fatalf("exact limit should pass: %v", err)
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	c := Compress(nil, []byte("payload-payload-payload"))
	out, err := Decompress(prefix, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) || string(out[len(prefix):]) != "payload-payload-payload" {
		t.Fatalf("out = %q", out)
	}
}

func TestMustRoundTrip(t *testing.T) {
	MustRoundTrip([]byte("abcabcabcabcabcabc"))
	MustRoundTrip(nil)
}

// Property: every input round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		c := Compress(nil, data)
		d, err := Decompress(nil, c, 0)
		return err == nil && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: structured (word-patterned) inputs round-trip — catches match
// boundary bugs that purely random bytes rarely hit.
func TestStructuredRoundTripProperty(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16)%8192 + 1
		data := make([]byte, 0, n*2)
		for len(data) < n {
			switch rng.Intn(3) {
			case 0: // run
				data = append(data, bytes.Repeat([]byte{byte(rng.Intn(4))}, rng.Intn(64)+1)...)
			case 1: // copy earlier slice
				if len(data) > 8 {
					s := rng.Intn(len(data) - 4)
					e := s + rng.Intn(len(data)-s)
					data = append(data, data[s:e]...)
				} else {
					data = append(data, byte(rng.Intn(256)))
				}
			default: // random bytes
				chunk := make([]byte, rng.Intn(32)+1)
				rng.Read(chunk)
				data = append(data, chunk...)
			}
		}
		c := Compress(nil, data)
		d, err := Decompress(nil, c, 0)
		return err == nil && bytes.Equal(d, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
