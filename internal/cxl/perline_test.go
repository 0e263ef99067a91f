package cxl

import (
	"fmt"
	"reflect"
	"testing"

	"teco/internal/cpusim"
	"teco/internal/dba"
	"teco/internal/gpusim"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// replayWindows is how many drain windows of a run the reference fires line
// by line; a longer run fires only its first and last windows (the lines
// between cannot complete later than the last one).
const replayWindows = 4

// drainWindow bounds how many line events the reference holds at once, the
// controller's pending-queue depth.
const drainWindow = DefaultQueueCap

// lineEvents is the reference's pooled line-completion handler.
type lineEvents struct {
	last  sim.Time
	fired int64
}

func (h *lineEvents) Fire(now sim.Time) { h.last, h.fired = now, h.fired+1 }

// perLineFlow is the per-line reference for SendFlow on a fault-free link:
// the paper's updated cache lines "going through the link one after another
// in a stream manner" (§VIII-A). Line i of a run of `lines` lines carrying
// n payload bytes completes once its prefix of the payload has serialized,
// at start + DurationForBytes(n·(i+1)/lines); the last line also pays the
// run's fixed extra latency. Each line is an event on a discrete-event
// engine, drained a window at a time, and the run completes when its last
// event fires: that time, not a closed form, is what the link commits.
func perLineFlow(t *testing.T, l *Link, ready sim.Time, n, lines int64, extra sim.Time, pktBytes int) FlowResult {
	res, _ := perLineEvents(t, l, ready, n, lines, extra, pktBytes)
	return res
}

// perLineEvents is perLineFlow that also returns how many line events the
// engine fired.
func perLineEvents(t *testing.T, l *Link, ready sim.Time, n, lines int64, extra sim.Time, pktBytes int) (FlowResult, int64) {
	t.Helper()
	admit, start := l.admitRun(ready)
	lines = max(lines, 1)
	eng, h := sim.New(), &lineEvents{}
	var scheduled int64
	for next := int64(0); next < lines; next += drainWindow {
		if lines > replayWindows*drainWindow && next == drainWindow {
			next = (lines - 1) / drainWindow * drainWindow // skip to the last window
		}
		for i := next; i < min(next+drainWindow, lines); i++ {
			at := start + sim.DurationForBytes(n*(i+1)/lines, l.bytesPerSecond)
			if i == lines-1 {
				at += extra
			}
			eng.AtHandler(at, h)
			scheduled++
		}
		eng.Run()
	}
	if h.fired != scheduled {
		t.Fatalf("reference fired %d of %d line events", h.fired, scheduled)
	}
	done := h.last

	res := FlowResult{Admit: admit, Packets: 1, CleanDone: done, Done: done}
	if pktBytes > 0 {
		res.Packets = max((n+int64(pktBytes)-1)/int64(pktBytes), 1)
	}
	l.cleanFreeAt = done
	l.commitRun(done, l.ServiceTime(n, extra), n)
	return res, h.fired
}

// seamRun is one run as core pushes it onto a link: n payload bytes over
// `lines` cache lines (fewer payload bytes than 64 per line under DBA),
// with the aggregation delay as extra and the wire packet size the retry
// engine would frame it at.
type seamRun struct {
	n        int64
	lines    int64
	extra    sim.Time
	pktBytes int
}

func (r seamRun) String() string { return fmt.Sprintf("n=%d/lines=%d/extra=%v", r.n, r.lines, r.extra) }

// seamRuns is the input domain core produces: every evaluation model's
// gradient chunks, its parameter chunks at full width and at every
// dirty_bytes (with the DBA delay), its far-tier slots (parameter and 2×
// optimizer state) and its whole-model runs (the invalidation ablation),
// up to Bert-large's largest; plus short runs either side of each drain
// window boundary, a zero-byte run and a partial last line.
func seamRuns() []seamRun {
	seen := map[seamRun]bool{}
	var runs []seamRun
	add := func(bytes int64, dirty int) {
		r := seamRun{n: bytes, lines: mem.LinesIn(bytes), pktBytes: WirePacketBytes(dirty)}
		if dirty > 0 {
			r.n = bytes * int64(dba.WordsPerLine*dirty) / mem.LineSize
			r.extra = dba.ModelledLatency
		}
		if !seen[r] {
			seen[r] = true
			runs = append(runs, r)
		}
	}
	gpu, cpu := gpusim.V100(), cpusim.Xeon6120()
	for _, m := range modelzoo.EvaluationModels() {
		for _, ch := range gpu.GradientSchedule(m, 4) {
			add(ch.Bytes, 0)
		}
		upd := cpu.UpdateSchedule(m)
		for i := range upd.N {
			_, bytes := upd.Chunk(i)
			for _, dirty := range []int{0, 1, 2, 3, 4} {
				add(bytes, dirty)
			}
			add(2*bytes, 0)
		}
		add(m.ParamBytes(), 0)
		add(m.GradBytes(), 0)
	}
	for _, lines := range []int64{1, 2, drainWindow - 1, drainWindow, drainWindow + 1,
		2*drainWindow - 1, 2 * drainWindow, 2*drainWindow + 1, 3*drainWindow + 17,
		replayWindows * drainWindow, replayWindows*drainWindow + 1} {
		for _, dirty := range []int{0, 2} {
			add(lines*mem.LineSize, dirty)
		}
	}
	add(0, 2)
	add(64*257+32, 0)
	return runs
}

// TestPerLineMatchesSendFlow is the seam between core and the link: every
// run core can push, on every link state it can find, completes on the
// per-line reference exactly when SendFlow's closed form says, and leaves
// the link in exactly the same state (drain and fault-free drain, the
// pending-queue ring, bytes, packets, busy and stall time). By composition
// that covers every run of every core plane: core touches a link only
// through SendFlow and reads only what is compared here.
func TestPerLineMatchesSendFlow(t *testing.T) {
	same := func(t *testing.T, what string, want, got FlowResult, a, b *Link) {
		t.Helper()
		if want != got {
			t.Fatalf("%s: SendFlow %+v != per-line %+v", what, want, got)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: link state diverged:\nSendFlow %+v\nper-line %+v", what, *a, *b)
		}
	}

	t.Run("domain", func(t *testing.T) {
		runs := seamRuns()
		for _, raw := range []float64{16e9, 32e9, 64e9} { // PCIe 3.0, 4.0, 5.0 x16
			bw := raw * modelzoo.CXLEfficiency
			// Queue states either side of the ring boundary: 0 to
			// queueCap+1 one-line runs still in flight, all ready at 0.
			for _, prior := range []int{0, 1, DefaultQueueCap - 1, DefaultQueueCap, DefaultQueueCap + 1} {
				a, b := NewLink(nil, bw, 0), NewLink(nil, bw, 0)
				for i := 0; i < prior; i++ {
					want := a.SendFlow(0, mem.LineSize, 0, WirePacketBytes(0), false)
					got := perLineFlow(t, b, 0, mem.LineSize, 1, 0, WirePacketBytes(0))
					same(t, fmt.Sprintf("bw %g prior run %d", raw, i), want, got, a, b)
				}
				for _, r := range runs {
					// Ready at 0 meets the queue state; ready late meets
					// an idle link.
					for _, ready := range []sim.Time{0, a.freeAt + sim.Microsecond} {
						a2, b2 := *a, *b // a copy owns its ring
						want := a2.SendFlow(ready, r.n, r.extra, r.pktBytes, r.extra != 0)
						got := perLineFlow(t, &b2, ready, r.n, r.lines, r.extra, r.pktBytes)
						same(t, fmt.Sprintf("bw %g prior %d ready %v %v", raw, prior, ready, r), want, got, &a2, &b2)
					}
				}
			}
		}
	})

	// A sequence mixing payload sizes, extra latency, aggregation and
	// ready-time gaps, so the state one run leaves is the next one's input.
	t.Run("script", func(t *testing.T) {
		full, agg := WirePacketBytes(0), WirePacketBytes(2)
		script := []struct {
			ready      sim.Time
			n          int64
			extra      sim.Time
			pktBytes   int
			aggregated bool
		}{
			{0, 64 * 100, 0, full, false},
			{sim.Nanosecond, 64 * 1, 0, full, false},
			{2 * sim.Nanosecond, 40 * 333, sim.Nanosecond, agg, true},
			{sim.Microsecond, 64 * 4096, 0, full, false},
			{sim.Microsecond, 0, sim.Nanosecond, agg, true},
			{2 * sim.Microsecond, 64*257 + 32, 0, full, false},
			{500 * sim.Microsecond, 64 * 70000, sim.Nanosecond, agg, true},
		}
		a, b := NewLink(nil, 0, 0), NewLink(nil, 0, 0)
		for i, r := range script {
			want := a.SendFlow(r.ready, r.n, r.extra, r.pktBytes, r.aggregated)
			got := perLineFlow(t, b, r.ready, r.n, mem.LinesIn(r.n), r.extra, r.pktBytes)
			same(t, fmt.Sprintf("run %d", i), want, got, a, b)
		}
	})

	// A pending queue of depth `depth` with every run ready at once, so
	// every admission after the first `depth` is back-pressured, and the
	// ring wraps more than twice.
	backpressure := func(t *testing.T, depth int) {
		a, b := NewLink(nil, 0, depth), NewLink(nil, 0, depth)
		for i := 0; i < max(50, 2*depth+3); i++ {
			n := int64(64 * (1 + i%7))
			want := a.SendFlow(0, n, 0, WirePacketBytes(0), false)
			got := perLineFlow(t, b, 0, n, mem.LinesIn(n), 0, WirePacketBytes(0))
			same(t, fmt.Sprintf("run %d", i), want, got, a, b)
		}
		if _, _, _, stall := a.Stats(); stall == 0 {
			t.Error("backpressure script produced no stall time")
		}
	}
	t.Run("backpressure", func(t *testing.T) { backpressure(t, 2) })
	// A queue deeper than DefaultQueueCap keeps its ring out of line.
	t.Run("deep", func(t *testing.T) { backpressure(t, 2*DefaultQueueCap+1) })
}

// TestLinkCopyOwnsRing: a Link is a value, so a copy's pending-queue ring
// (and every other part of its state) stays where the copy was taken while
// the original keeps sending, and the copy then runs the original's next
// flows to the same results.
func TestLinkCopyOwnsRing(t *testing.T) {
	l := MakeLink(0, 4)
	for i := 0; i < 3; i++ {
		l.SendFlow(0, mem.LineSize, 0, WirePacketBytes(0), false)
	}
	c := l
	frozen := l
	var want []FlowResult
	for i := 0; i < 9; i++ { // wraps the 4-slot ring twice
		want = append(want, l.SendFlow(0, mem.LineSize, 0, WirePacketBytes(0), false))
	}
	if !reflect.DeepEqual(c, frozen) {
		t.Fatalf("copy followed the original's sends:\ncopy   %+v\nbefore %+v", c, frozen)
	}
	if c.ring == l.ring {
		t.Fatal("original's ring did not move")
	}
	for i, w := range want {
		if got := c.SendFlow(0, mem.LineSize, 0, WirePacketBytes(0), false); got != w {
			t.Fatalf("flow %d on the copy: %+v, original gave %+v", i, got, w)
		}
	}
	if !reflect.DeepEqual(c, l) {
		t.Fatalf("copy and original diverged after the same flows:\ncopy     %+v\noriginal %+v", c, l)
	}
}

// TestStreamPerLineLastEventIsClosedForm: on an idle link the reference's
// stream of lines ends, extra latency included, exactly at the closed form,
// and a run longer than replayWindows windows fires only its first and last.
func TestStreamPerLineLastEventIsClosedForm(t *testing.T) {
	link := NewLink(nil, 0, 0)
	n := int64(64*12345 + 48)
	lines := mem.LinesIn(n)
	res, fired := perLineEvents(t, link, 0, n, lines, sim.Nanosecond, WirePacketBytes(0))
	if want := link.ServiceTime(n, sim.Nanosecond); res.Done != want {
		t.Fatalf("per-line Done %v, want closed form %v", res.Done, want)
	}
	if want := drainWindow + lines - (lines-1)/drainWindow*drainWindow; fired != want {
		t.Fatalf("fired %d line events, want %d (first and last window)", fired, want)
	}
}

// TestStreamPerLineWindowing: a run of a few drain windows fires every line
// event, window by window, and still ends at the closed form.
func TestStreamPerLineWindowing(t *testing.T) {
	link := NewLink(nil, 0, 0)
	lines := int64(3*drainWindow + 17)
	n := lines * 64
	res, fired := perLineEvents(t, link, 0, n, lines, 0, WirePacketBytes(0))
	if res.Done != link.ServiceTime(n, 0) {
		t.Fatalf("windowed Done %v, want %v", res.Done, link.ServiceTime(n, 0))
	}
	if fired != lines {
		t.Fatalf("fired %d line events, want %d", fired, lines)
	}
}

// TestSendFlowAllocs: the flow path core drives once per run allocates
// nothing.
func TestSendFlowAllocs(t *testing.T) {
	link := NewLink(nil, 0, 0)
	var ready sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		ready = link.SendFlow(ready, 64*16, 0, WirePacketBytes(0), false).Done
	})
	if allocs != 0 {
		t.Fatalf("SendFlow allocates %.1f/op, want 0", allocs)
	}
}
