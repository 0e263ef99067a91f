package cxl

import (
	"testing"

	"teco/internal/mem"
	"teco/internal/modelzoo"
)

// TestFlitEfficiencyDerivesPaperConstant: the paper's "94.3% of PCIe
// bandwidth" emulation constant is the flit framing overhead: 64 payload
// bytes per 68-byte flit.
func TestFlitEfficiencyDerivesPaperConstant(t *testing.T) {
	eff := float64(FlitPayloadBytes) / float64(FlitBytes)
	if eff < 0.94 || eff > 0.945 {
		t.Fatalf("flit efficiency = %.4f, want ~0.941 (paper models 0.943)", eff)
	}
	if diff := modelzoo.CXLEfficiency - eff; diff < 0 || diff > 0.01 {
		t.Fatalf("modelled efficiency %.4f should sit just above the flit bound %.4f",
			modelzoo.CXLEfficiency, eff)
	}
}

// TestAppendEncodeMatchesEncode checks that framing appended after bytes
// already in the buffer equals framing into an empty one, and that reuse
// does not allocate.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	pkts := []Packet{
		{Addr: 0x1234, Payload: make([]byte, mem.LineSize)},
		{Addr: 0xffff, Aggregated: true, DirtyBytes: 2, Payload: make([]byte, mem.LineSize/4*2)},
	}
	prefix := []byte("prefix")
	for i := range pkts {
		for j := range pkts[i].Payload {
			pkts[i].Payload[j] = byte(i*31 + j)
		}
		for name, enc := range map[string]func(*Packet, []byte) ([]byte, error){
			"AppendEncode": (*Packet).AppendEncode, "AppendEncodeFramed": (*Packet).AppendEncodeFramed,
		} {
			fresh, err := enc(&pkts[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			appended, err := enc(&pkts[i], append(make([]byte, 0, 256), prefix...))
			if err != nil {
				t.Fatal(err)
			}
			if string(appended) != string(prefix)+string(fresh) {
				t.Fatalf("packet %d: %s after a prefix differs from %s into an empty buffer", i, name, name)
			}
		}
	}

	// Steady-state framing with reused buffers is allocation-free.
	pkt := pkts[0]
	buf := make([]byte, 0, 256)
	var dec Packet
	dec.Payload = make([]byte, 0, mem.LineSize)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = pkt.AppendEncodeFramed(buf[:0])
		if err != nil {
			panic(err)
		}
		if err := DecodeInto(&dec, buf[:len(buf)-2]); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused frame encode/decode allocates %.1f/op, want 0", allocs)
	}
}
