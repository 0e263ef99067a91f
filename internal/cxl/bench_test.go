package cxl

import (
	"testing"

	"teco/internal/sim"
)

// benchLines is one homogeneous 1024-line run (a 64KiB layer chunk) per op.
const benchLines = 1024

func benchStream(b *testing.B, perLine bool) {
	link := NewLink(sim.New(), 0, 0)
	s := NewStream(link, perLine)
	n := benchLines * 64
	s.PushRun(0, n, benchLines, 0, 0, false) // warm the event pool
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PushRun(0, n, benchLines, 0, 0, false)
	}
}

// BenchmarkStreamPerLine measures the per-line reference path: one pooled
// event per cache line.
func BenchmarkStreamPerLine(b *testing.B) { benchStream(b, true) }

// BenchmarkStreamCoalesced measures the flow-coalescing fast path: one
// closed-form segment per run.
func BenchmarkStreamCoalesced(b *testing.B) { benchStream(b, false) }

// BenchmarkPacketAppendEncode measures the preallocated flit framing path.
func BenchmarkPacketAppendEncode(b *testing.B) {
	p := Packet{Addr: 42, Aggregated: true, DirtyBytes: 2, Payload: make([]byte, 32)}
	var buf []byte
	var dec Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = p.AppendEncode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeInto(&dec, buf); err != nil {
			b.Fatal(err)
		}
	}
}
