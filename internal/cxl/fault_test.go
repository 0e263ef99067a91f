package cxl

import (
	"errors"
	"math/rand"
	"testing"

	"teco/internal/mem"
)

// Failure-injection tests: corrupted, truncated, and bit-flipped packets
// must be rejected deterministically, never decoded into wrong data
// silently accepted as a *different-shaped* payload. (The ad-hoc random
// decode loop that used to live here is now the native fuzz target
// FuzzDecode in fuzz_test.go.)

func TestBitFlipDetectionOrShapePreservation(t *testing.T) {
	// A single bit flip in the header either fails to decode or decodes
	// into a packet whose payload length still matches its flags — the
	// Disaggregator then merges garbage *data* (a data-integrity issue
	// the framed CRC path handles), but never reads out of bounds.
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 32)
	rng.Read(payload)
	p := Packet{Addr: 123456, Aggregated: true, DirtyBytes: 2, Payload: payload}
	wire, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(wire)*8; bit++ {
		mut := make([]byte, len(wire))
		copy(mut, wire)
		mut[bit/8] ^= 1 << (bit % 8)
		q, err := decode(mut)
		if err != nil {
			continue
		}
		if len(q.Payload) != q.PayloadLen() {
			t.Fatalf("bit %d: decoded payload %d != declared %d", bit, len(q.Payload), q.PayloadLen())
		}
	}
}

func TestFramedCRCDetectsEveryBitFlip(t *testing.T) {
	// With the flit-style CRC trailer, *every* single-bit flip anywhere
	// in the frame is detected as ErrCRC — the condition that triggers
	// NAK + retransmit instead of a silent wrong merge.
	payload := make([]byte, 32)
	rand.New(rand.NewSource(8)).Read(payload)
	p := Packet{Addr: 99, Aggregated: true, DirtyBytes: 2, Payload: payload}
	frame, err := p.AppendEncodeFramed(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFramed(frame); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := make([]byte, len(frame))
		copy(mut, frame)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeFramed(mut); !errors.Is(err, ErrCRC) {
			t.Fatalf("bit %d: err = %v, want ErrCRC", bit, err)
		}
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	p := Packet{Addr: 5, Payload: make([]byte, mem.LineSize)}
	wire, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if _, err := decode(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestLinkMonotonicTime(t *testing.T) {
	// Completion times never go backwards even with adversarial ready
	// times (they are clamped by FIFO order).
	l := NewLink(nil, 16e9, 8)
	rng := rand.New(rand.NewSource(3))
	var prev int64 = -1
	for i := 0; i < 10000; i++ {
		done := l.SendFlow(0, int64(rng.Intn(256)+1), 0, 0, false).Done
		if int64(done) < prev {
			t.Fatalf("completion time went backwards at %d", i)
		}
		prev = int64(done)
	}
}
