package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot drives the snapshot decoder with arbitrary bytes: it
// must never panic, and any buffer it accepts must re-encode to an image
// that decodes to the same snapshot (round-trip stability). Seeded with a
// valid snapshot so mutations explore the framed-section space.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(testSnapshot(1).Encode())
	f.Add(smallSnapshot(0).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		re := s.Encode()
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !bytes.Equal(re, s2.Encode()) {
			t.Fatal("encode/decode/encode not stable")
		}
	})
}
