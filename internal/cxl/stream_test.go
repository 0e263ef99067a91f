package cxl

import (
	"testing"

	"teco/internal/mem"
	"teco/internal/sim"
)

// pushScript drives an identical sequence of runs through a stream and
// returns every FlowResult. The script mixes payload sizes, extra latency,
// aggregation flags and ready-time gaps so admission, backpressure and
// telescoping are all exercised.
type scriptRun struct {
	ready      sim.Time
	n          int
	extra      sim.Time
	pktBytes   int
	aggregated bool
}

func defaultScript() []scriptRun {
	full := WirePacketBytes(0)
	agg := WirePacketBytes(2)
	return []scriptRun{
		{0, 64 * 100, 0, full, false},
		{sim.Nanosecond, 64 * 1, 0, full, false},
		{2 * sim.Nanosecond, 40 * 333, sim.Nanosecond, agg, true},
		{sim.Microsecond, 64 * 4096, 0, full, false},
		{sim.Microsecond, 0, sim.Nanosecond, agg, true},
		{2 * sim.Microsecond, 64*257 + 32, 0, full, false},
		{500 * sim.Microsecond, 64 * 70000, sim.Nanosecond, agg, true},
	}
}

func runScript(t *testing.T, perLine bool, faults FaultConfig) ([]FlowResult, *Link, *Stream) {
	t.Helper()
	link := NewLink(nil, 0, 0)
	if faults.Enabled() {
		if _, err := link.InjectFaults(faults); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStream(link, perLine)
	var out []FlowResult
	for _, r := range defaultScript() {
		lines := mem.LinesIn(int64(r.n))
		out = append(out, s.PushRun(r.ready, r.n, lines, r.extra, r.pktBytes, r.aggregated))
	}
	return out, link, s
}

// TestStreamModesBitIdentical is the heart of the tentpole: the coalesced
// closed-form path and the per-line event path must produce identical
// FlowResults and identical link state, on pristine links and across a BER
// sweep (where both modes must hand runs to the retry engine whole).
func TestStreamModesBitIdentical(t *testing.T) {
	for _, ber := range []float64{0, 1e-7, 1e-6, 1e-5, 1e-4} {
		fc := FaultConfig{}
		if ber > 0 {
			fc = FaultConfig{Seed: 7, BER: ber}
		}
		co, coLink, _ := runScript(t, false, fc)
		pl, plLink, pls := runScript(t, true, fc)
		if len(co) != len(pl) {
			t.Fatalf("BER %g: %d vs %d results", ber, len(co), len(pl))
		}
		for i := range co {
			if co[i] != pl[i] {
				t.Errorf("BER %g run %d: coalesced %+v != per-line %+v", ber, i, co[i], pl[i])
			}
		}
		cb, cp, cbusy, cstall := coLink.Stats()
		pb, pp, pbusy, pstall := plLink.Stats()
		if cb != pb || cp != pp || cbusy != pbusy || cstall != pstall {
			t.Errorf("BER %g: link stats diverge: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
				ber, cb, cp, cbusy, cstall, pb, pp, pbusy, pstall)
		}
		if coLink.freeAt != plLink.freeAt || coLink.FenceClean(0) != plLink.FenceClean(0) {
			t.Errorf("BER %g: drain/clean-drain diverge: %v/%v vs %v/%v",
				ber, coLink.freeAt, coLink.FenceClean(0), plLink.freeAt, plLink.FenceClean(0))
		}
		if coLink.FaultStats() != plLink.FaultStats() {
			t.Errorf("BER %g: fault stats diverge: %+v vs %+v", ber, coLink.FaultStats(), plLink.FaultStats())
		}
		if ber == 0 && pls.stats.LineEvents == 0 {
			t.Error("per-line mode fired no line events on a pristine link")
		}
		if ber > 0 && pls.stats.FaultFallback == 0 {
			t.Errorf("BER %g: per-line mode never fell back at the fault boundary", ber)
		}
	}
}

// TestStreamModesBitIdenticalUnderBackpressure drives a 2-deep pending
// queue with runs that are all ready at once, so every admission is
// back-pressured, and checks the modes still agree exactly.
func TestStreamModesBitIdenticalUnderBackpressure(t *testing.T) {
	build := func(perLine bool) ([]FlowResult, *Link) {
		link := NewLink(nil, 0, 2)
		s := NewStream(link, perLine)
		var out []FlowResult
		for i := 0; i < 50; i++ {
			n := 64 * (1 + i%7)
			out = append(out, s.PushRun(0, n, mem.LinesIn(int64(n)), 0, WirePacketBytes(0), false))
		}
		return out, link
	}
	co, coLink := build(false)
	pl, plLink := build(true)
	for i := range co {
		if co[i] != pl[i] {
			t.Errorf("run %d: coalesced %+v != per-line %+v", i, co[i], pl[i])
		}
	}
	_, _, _, cstall := coLink.Stats()
	_, _, _, pstall := plLink.Stats()
	if cstall == 0 {
		t.Error("backpressure script produced no stall time")
	}
	if cstall != pstall {
		t.Errorf("stall time diverges: %v vs %v", cstall, pstall)
	}
}

// TestStreamMatchesSendFlow pins the coalesced path to the pre-existing
// SendFlow behaviour: wrapping a link in a Stream must not change a single
// timestamp relative to calling SendFlow directly.
func TestStreamMatchesSendFlow(t *testing.T) {
	direct := NewLink(nil, 0, 0)
	var want []FlowResult
	for _, r := range defaultScript() {
		want = append(want, direct.SendFlow(r.ready, r.n, r.extra, r.pktBytes, r.aggregated))
	}
	got, _, _ := runScript(t, false, FaultConfig{})
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("run %d: SendFlow %+v != Stream %+v", i, want[i], got[i])
		}
	}
}

// TestStreamPerLineLastEventIsClosedForm asserts the telescoping property
// directly: the per-line path's committed Done comes from the last fired
// line event, and equals start + ServiceTime(n, extra).
func TestStreamPerLineLastEventIsClosedForm(t *testing.T) {
	link := NewLink(nil, 0, 0)
	s := NewStream(link, true)
	n := 64*12345 + 48
	lines := mem.LinesIn(int64(n))
	res := s.PushRun(0, n, lines, sim.Nanosecond, WirePacketBytes(0), false)
	want := link.ServiceTime(n, sim.Nanosecond)
	if res.Done != want {
		t.Fatalf("per-line Done %v, want closed form %v", res.Done, want)
	}
	if got := s.stats.LineEvents; got != lines {
		t.Fatalf("fired %d line events, want %d", got, lines)
	}
	if s.eng.Fired() != uint64(lines) {
		t.Fatalf("engine fired %d, want %d", s.eng.Fired(), lines)
	}
}

// TestStreamPerLineWindowing pushes a run larger than the drain window and
// checks the event count and the closed form survive the windowed drain.
func TestStreamPerLineWindowing(t *testing.T) {
	link := NewLink(nil, 0, 0)
	s := NewStream(link, true)
	lines := int64(3*drainWindow + 17)
	n := int(lines) * 64
	res := s.PushRun(0, n, lines, 0, WirePacketBytes(0), false)
	if res.Done != link.ServiceTime(n, 0) {
		t.Fatalf("windowed Done %v, want %v", res.Done, link.ServiceTime(n, 0))
	}
	if got := s.stats.LineEvents; got != lines {
		t.Fatalf("fired %d line events, want %d", got, lines)
	}
}

// TestStreamCoalescedAllocs asserts the fast path allocates nothing per run
// and the per-line path nothing per line once the pool is warm.
func TestStreamCoalescedAllocs(t *testing.T) {
	link := NewLink(nil, 0, 0)
	s := NewStream(link, false)
	var ready sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		r := s.PushRun(ready, 64*16, 16, 0, WirePacketBytes(0), false)
		ready = r.Done
	})
	if allocs != 0 {
		t.Fatalf("coalesced PushRun allocates %.1f/op, want 0", allocs)
	}

	pl := NewStream(NewLink(nil, 0, 0), true)
	ready = 0
	// Warm the event pool and heap.
	pl.PushRun(0, 64*64, 64, 0, WirePacketBytes(0), false)
	ready = pl.Link().freeAt
	allocs = testing.AllocsPerRun(1000, func() {
		r := pl.PushRun(ready, 64*16, 16, 0, WirePacketBytes(0), false)
		ready = r.Done
	})
	if allocs != 0 {
		t.Fatalf("per-line PushRun allocates %.1f/op after warmup, want 0", allocs)
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
