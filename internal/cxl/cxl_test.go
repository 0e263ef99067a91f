package cxl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"teco/internal/mem"
	"teco/internal/sim"
)

func TestEffectiveBandwidth(t *testing.T) {
	bw := EffectiveBandwidth()
	if bw <= 15e9 || bw >= 16e9 {
		t.Fatalf("effective bandwidth = %g, want 94.3%% of 16GB/s", bw)
	}
}

func TestServiceTime(t *testing.T) {
	l := NewLink(nil, 16e9, 0)
	// 64 B at 16 GB/s = 4 ns — the paper's §VIII-D per-line latency.
	st := l.ServiceTime(mem.LineSize, 0)
	if st < 3900*sim.Picosecond || st > 4100*sim.Picosecond {
		t.Fatalf("line service = %v, want ~4ns", st)
	}
	// Extra latency (Aggregator 1 ns) adds on top.
	if l.ServiceTime(mem.LineSize, sim.Nanosecond) != st+sim.Nanosecond {
		t.Fatal("extra latency not added")
	}
}

func TestLinkSerializesFIFO(t *testing.T) {
	l := NewLink(nil, 16e9, 0)
	d1 := l.SendFlow(0, 64, 0, 0, false).Done
	d2 := l.SendFlow(0, 64, 0, 0, false).Done
	if d2 <= d1 {
		t.Fatal("second packet must finish after first")
	}
	if d2-d1 != d1 {
		t.Fatalf("unequal spacing: %v then %v", d1, d2-d1)
	}
}

func TestLinkRespectsReadyTime(t *testing.T) {
	l := NewLink(nil, 16e9, 0)
	r := l.SendFlow(100*sim.Nanosecond, 64, 0, 0, false)
	admit, done := r.Admit, r.Done
	if admit != 100*sim.Nanosecond {
		t.Fatalf("admit = %v", admit)
	}
	if done <= 100*sim.Nanosecond {
		t.Fatalf("done = %v", done)
	}
}

func TestPendingQueueBackpressure(t *testing.T) {
	l := NewLink(nil, 16e9, 4) // tiny queue: 4 entries
	svc := l.ServiceTime(64, 0)
	// Five packets all ready at t=0: the fifth must wait for packet 1 to
	// leave the queue (i.e. finish serialization at svc).
	var admits []sim.Time
	for i := 0; i < 5; i++ {
		a := l.SendFlow(0, 64, 0, 0, false).Admit
		admits = append(admits, a)
	}
	for i := 0; i < 4; i++ {
		if admits[i] != 0 {
			t.Fatalf("packet %d admit = %v, want 0", i, admits[i])
		}
	}
	if admits[4] != svc {
		t.Fatalf("packet 4 admit = %v, want %v (slot frees when pkt 0 completes)", admits[4], svc)
	}
	_, _, _, stall := l.Stats()
	if stall != svc {
		t.Fatalf("stall = %v, want %v", stall, svc)
	}
}

func TestDeepQueueNoBackpressureForShortBursts(t *testing.T) {
	l := NewLink(nil, 16e9, DefaultQueueCap)
	for i := 0; i < DefaultQueueCap; i++ {
		a := l.SendFlow(0, 64, 0, 0, false).Admit
		if a != 0 {
			t.Fatalf("packet %d back-pressured in a %d-deep queue", i, DefaultQueueCap)
		}
	}
	a := l.SendFlow(0, 64, 0, 0, false).Admit
	if a == 0 {
		t.Fatal("packet beyond queue depth must be back-pressured")
	}
}

func TestFence(t *testing.T) {
	l := NewLink(nil, 16e9, 0)
	if l.Fence(5*sim.Nanosecond) != 5*sim.Nanosecond {
		t.Fatal("fence on idle link should return ready time")
	}
	done := l.SendFlow(0, 6400, 0, 0, false).Done
	if got := l.Fence(0); got != done {
		t.Fatalf("fence = %v, want %v", got, done)
	}
	if got := l.Fence(done + 10); got != done+10 {
		t.Fatal("fence must not travel back in time")
	}
	if l.freeAt != done {
		t.Fatal("drain point mismatch")
	}
}

func TestStatsAndReset(t *testing.T) {
	l := NewLink(nil, 16e9, 0)
	l.SendFlow(0, 64, 0, 0, false)
	l.SendFlow(0, MsgBytes, 0, 0, false)
	b, p, busy, _ := l.Stats()
	if b != 64+MsgBytes || p != 2 || busy <= 0 {
		t.Fatalf("stats = %d bytes %d pkts busy %v", b, p, busy)
	}
	l.Reset()
	b, p, busy, stall := l.Stats()
	if b != 0 || p != 0 || busy != 0 || stall != 0 || l.freeAt != 0 {
		t.Fatal("reset incomplete")
	}
}

// Throughput sanity: streaming 1 GB of 64-byte lines takes ~1/15.09 s * 1e9/…
func TestLinkThroughput(t *testing.T) {
	l := NewLink(nil, 0, 0) // default effective bandwidth
	const lines = 100000
	var done sim.Time
	for i := 0; i < lines; i++ {
		done = l.SendFlow(0, mem.LineSize, 0, 0, false).Done
	}
	wantSeconds := float64(lines*mem.LineSize) / EffectiveBandwidth()
	got := done.Seconds()
	if got < wantSeconds*0.99 || got > wantSeconds*1.01 {
		t.Fatalf("streamed in %.6fs, want %.6fs", got, wantSeconds)
	}
}

func TestPacketEncodeDecodeFullLine(t *testing.T) {
	payload := make([]byte, mem.LineSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := Packet{Addr: 0x123456789A, Payload: payload}
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != WirePacketBytes(0) {
		t.Fatalf("wire bytes = %d, want %d", len(buf), WirePacketBytes(0))
	}
	q, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Addr != p.Addr || q.Aggregated || !bytes.Equal(q.Payload, payload) {
		t.Fatalf("roundtrip mismatch: %+v", q)
	}
}

func TestPacketEncodeDecodeAggregated(t *testing.T) {
	// dirty_bytes = 2: payload is 32 bytes for a 64-byte line (§V-B).
	payload := make([]byte, 32)
	rand.New(rand.NewSource(3)).Read(payload)
	p := Packet{Addr: 42, Aggregated: true, DirtyBytes: 2, Payload: payload}
	if p.PayloadLen() != 32 {
		t.Fatalf("aggregated payload len = %d, want 32", p.PayloadLen())
	}
	wire, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Aggregated || q.DirtyBytes != 2 || !bytes.Equal(q.Payload, payload) {
		t.Fatalf("roundtrip mismatch: %+v", q)
	}
}

func TestPacketHalvesWireSize(t *testing.T) {
	full := Packet{Addr: 1, Payload: make([]byte, 64)}
	agg := Packet{Addr: 1, Aggregated: true, DirtyBytes: 2, Payload: make([]byte, 32)}
	if agg.PayloadLen()*2 != full.PayloadLen() {
		t.Fatal("DBA with dirty_bytes=2 must halve the payload")
	}
	if WirePacketBytes(int(agg.DirtyBytes)) >= WirePacketBytes(0) {
		t.Fatal("aggregated packet must be smaller on the wire")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decode(make([]byte, 4)); err == nil {
		t.Fatal("short header must error")
	}
	p := Packet{Addr: 7, Payload: make([]byte, 64)}
	buf, err := p.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(buf[:20]); err == nil {
		t.Fatal("truncated payload must error")
	}
	// Corrupt dirty-byte length: aggregated flag with length 0.
	buf[7] = 1 << 7
	if _, err := decode(buf); err == nil {
		t.Fatal("invalid dirty length must error")
	}
}

func TestEncodeErrorsOnMismatchedPayload(t *testing.T) {
	p := Packet{Addr: 1, Payload: make([]byte, 10)}
	if _, err := p.AppendEncode(nil); !errors.Is(err, ErrPayloadMismatch) {
		t.Fatalf("err = %v, want ErrPayloadMismatch", err)
	}
	if _, err := p.AppendEncodeFramed(nil); !errors.Is(err, ErrPayloadMismatch) {
		t.Fatalf("framed err = %v, want ErrPayloadMismatch", err)
	}
}

// Property: encode/decode round-trips for all dirty-byte lengths and
// arbitrary addresses within 48 bits.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(rawAddr uint64, db uint8, seed int64) bool {
		addr := mem.LineAddr(rawAddr & ((1 << 48) - 1))
		n := int(db%4) + 1
		p := Packet{Addr: addr, Aggregated: true, DirtyBytes: uint8(n)}
		p.Payload = make([]byte, p.PayloadLen())
		rand.New(rand.NewSource(seed)).Read(p.Payload)
		wire, err := p.AppendEncode(nil)
		if err != nil {
			return false
		}
		q, err := decode(wire)
		if err != nil {
			return false
		}
		return q.Addr == p.Addr && q.Aggregated && q.DirtyBytes == uint8(n) && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
