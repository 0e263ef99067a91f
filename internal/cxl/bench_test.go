package cxl

import "testing"

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
