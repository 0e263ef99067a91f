package cxl

import (
	"bytes"
	"reflect"
	"testing"

	"teco/internal/mem"
)

// decode and decodeFramed decode into a fresh Packet.
func decode(buf []byte) (Packet, error) {
	var p Packet
	err := DecodeInto(&p, buf)
	return p, err
}

func decodeFramed(buf []byte) (Packet, error) {
	var p Packet
	err := DecodeFramedInto(&p, buf)
	return p, err
}

// fuzzSeeds returns representative wire images: valid full-line and
// aggregated packets, their framed variants, plus the truncation and
// bit-flip corruptions the old ad-hoc fault tests exercised.
func fuzzSeeds(tb testing.TB) [][]byte {
	full := Packet{Addr: 0x123456789A, Payload: make([]byte, mem.LineSize)}
	for i := range full.Payload {
		full.Payload[i] = byte(i)
	}
	agg := Packet{Addr: 42, Aggregated: true, DirtyBytes: 2, Payload: make([]byte, 32)}
	for i := range agg.Payload {
		agg.Payload[i] = byte(0xA0 ^ i)
	}
	var seeds [][]byte
	for _, p := range []*Packet{&full, &agg} {
		wire, err := p.AppendEncode(nil)
		if err != nil {
			tb.Fatal(err)
		}
		framed, err := p.AppendEncodeFramed(nil)
		if err != nil {
			tb.Fatal(err)
		}
		flipped := append([]byte(nil), wire...)
		flipped[7] ^= 0x80 // toggle the aggregation flag
		seeds = append(seeds, wire, framed, flipped, wire[:4], wire[:headerSize], wire[:len(wire)-1])
	}
	seeds = append(seeds, nil, make([]byte, 1), make([]byte, headerSize))
	return seeds
}

// decodeReused decodes buf the way the replay loop does — into a Packet
// still carrying an earlier, larger payload — and fails unless the result
// equals a decode into a zero Packet, and unless an accepted payload landed
// in the earlier payload's capacity.
func decodeReused(t *testing.T, buf []byte, into func(*Packet, []byte) error) (Packet, error) {
	var fresh Packet
	errFresh := into(&fresh, buf)
	prev := bytes.Repeat([]byte{0xEE}, 2*mem.LineSize)
	reused := Packet{Addr: 0xDEAD, Aggregated: true, DirtyBytes: 3, Payload: prev[:3*mem.LineSize/4]}
	errReused := into(&reused, buf)
	if (errFresh == nil) != (errReused == nil) || (errFresh != nil && errFresh.Error() != errReused.Error()) {
		t.Fatalf("decode into a used Packet: err %v, into a zero Packet: %v", errReused, errFresh)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("decode into a used Packet %+v, into a zero Packet %+v", reused, fresh)
	}
	if errReused == nil && &reused.Payload[0] != &prev[0] {
		t.Fatal("decode into a used Packet did not reuse its payload capacity")
	}
	return fresh, errFresh
}

// FuzzDecode asserts DecodeInto never panics on arbitrary input, decodes
// into a reused Packet exactly as into a zero one, and that any packet it
// accepts is internally consistent and survives an AppendEncode→DecodeInto
// round trip bit-exactly.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := decodeReused(t, buf, DecodeInto)
		if err != nil {
			return
		}
		if len(p.Payload) != p.PayloadLen() {
			t.Fatalf("decoded payload %dB != declared %dB", len(p.Payload), p.PayloadLen())
		}
		if p.Aggregated && (p.DirtyBytes == 0 || p.DirtyBytes > 4) {
			t.Fatalf("accepted invalid dirty-byte length %d", p.DirtyBytes)
		}
		wire, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatalf("re-encode of accepted packet failed: %v", err)
		}
		q, err := decode(wire)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
		}
	})
}

// FuzzDecodeFramed asserts the CRC-framed decode path never panics, decodes
// into a reused Packet exactly as into a zero one, and never delivers data
// from a frame whose CRC does not match.
func FuzzDecodeFramed(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := decodeReused(t, buf, DecodeFramedInto)
		if err != nil {
			return
		}
		refr, err := p.AppendEncodeFramed(nil)
		if err != nil {
			t.Fatalf("re-frame of accepted packet failed: %v", err)
		}
		if _, err := decodeFramed(refr); err != nil {
			t.Fatalf("round-trip framed decode failed: %v", err)
		}
	})
}
