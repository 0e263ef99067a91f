package cxl

import (
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/sim"
)

// Stream is the cache-line stream simulator over a Link: the paper's
// "updated cache lines ... going through the link one after another in a
// stream manner" (§VIII-A), pushed run-at-a-time where a run is one
// homogeneous burst of lines (one layer's gradient flush, one ADAM chunk's
// parameter writeback).
//
// It runs in one of two modes with bit-identical sim.Time results:
//
//   - Coalesced (the default fast path): a homogeneous run — same per-line
//     service time, no injected fault, no retry or poison in flight —
//     collapses into a single run-length segment whose completion time is
//     computed in closed form. No events fire.
//   - Per-line (the reference path): every cache line is its own pooled
//     event on the stream's private discrete-event engine; the run completes
//     when its last line event fires. Line i of a run of L lines carrying n
//     payload bytes completes at start + DurationForBytes(n*(i+1)/L), which
//     telescopes exactly to the closed form for the last line, so the two
//     modes agree bit-for-bit (asserted by stream_test.go and the
//     cross-check suites in core).
//
// Coalescing breaks exactly at fault boundaries: a run on a link with an
// attached fault model is never split or merged in either mode — it is
// handed to the flow-granular retry/replay engine whole, so the seeded RNG
// draw sequence (and therefore every retry, stall and poison timestamp) is
// identical in both modes. Backpressure boundaries need no special casing:
// pending-queue admission and link-busy serialization are applied through
// the same admitRun/commitRun as the closed form.
//
// A Stream owns a private engine rather than sharing the caller's: runs on
// one link complete monotonically (each run starts no earlier than the
// previous run's drain), so the private clock never has to move backwards,
// while two links fed from independent producer timelines would violate
// that on a shared clock.
type Stream struct {
	link    *Link
	perLine bool
	eng     *sim.Engine

	// lastDone is the firing time of the most recent line event — the
	// event-derived completion the per-line path commits, making the
	// closed-form comparison in the tests a real cross-check.
	lastDone sim.Time
	stats    StreamStats
	lh       lineHandler
}

// StreamStats counts how runs were simulated.
type StreamStats struct {
	// Runs is the number of PushRun calls.
	Runs int64
	// Coalesced counts runs collapsed into a closed-form segment.
	Coalesced int64
	// FaultFallback counts runs handed whole to the flow retry engine
	// because a fault model was attached (both modes take this path).
	FaultFallback int64
	// LineEvents counts per-line events fired through the event engine.
	LineEvents int64
}

// lineHandler is the pooled, closure-free per-line completion callback.
type lineHandler struct{ s *Stream }

func (h *lineHandler) Fire(now sim.Time) {
	h.s.lastDone = now
	h.s.stats.LineEvents++
}

// NewStream wraps link in a stream simulator. perLine selects the per-line
// reference path; false selects the coalesced fast path.
func NewStream(link *Link, perLine bool) *Stream {
	s := &Stream{link: link, perLine: perLine, eng: sim.New()}
	s.lh.s = s
	return s
}

// Link returns the underlying link.
func (s *Stream) Link() *Link { return s.link }

// PushRun pushes one homogeneous run of `lines` cache lines carrying n
// payload bytes total, becoming ready at `ready`. extra, pktBytes and
// aggregated have SendFlow's meaning (aggregation logic delay, retry framing
// granularity, DBA flag). The result is bit-identical across modes.
func (s *Stream) PushRun(ready sim.Time, n int, lines int64, extra sim.Time, pktBytes int, aggregated bool) FlowResult {
	s.stats.Runs++
	if s.link.faults != nil {
		// Fault boundary: never coalesce, never split — the retry engine
		// consumes its RNG at flow granularity, so both modes must hand
		// the run over whole to draw the same sequence.
		s.stats.FaultFallback++
		return s.link.SendFlow(ready, n, extra, pktBytes, aggregated)
	}
	if !s.perLine {
		s.stats.Coalesced++
		return s.link.SendFlow(ready, n, extra, pktBytes, aggregated)
	}
	return s.pushPerLine(ready, n, lines, extra, pktBytes)
}

// drainWindow bounds how many line events are outstanding at once — sized
// to the controller's pending-queue depth, the natural bound on in-flight
// lines. Windowing keeps the heap (and peak memory) small on multi-gigabyte
// models without changing any firing time, because line times within a run
// are already sorted; it also keeps the heap cache-resident, which measures
// ~2x faster per line than a 16Ki window.
const drainWindow = DefaultQueueCap

// pushPerLine simulates the run one cache-line event at a time on the
// stream's private engine and commits the event-derived completion time.
func (s *Stream) pushPerLine(ready sim.Time, n int, lines int64, extra sim.Time, pktBytes int) FlowResult {
	l := s.link
	admit, start := l.admitRun(ready)
	svc := l.ServiceTime(n, extra)
	if lines < 1 {
		lines = 1
	}
	s.lastDone = start
	for next := int64(0); next < lines; {
		batch := lines - next
		if batch > drainWindow {
			batch = drainWindow
		}
		for k := int64(0); k < batch; k++ {
			i := next + k
			// Cumulative-byte schedule: line i completes once its prefix
			// of the payload has serialized. The last line additionally
			// pays the run's fixed extra latency, landing it exactly on
			// start + ServiceTime(n, extra).
			t := start + sim.DurationForBytes(int64(n)*(i+1)/lines, l.bytesPerSecond)
			if i == lines-1 {
				t += extra
			}
			s.eng.AtHandler(t, &s.lh)
		}
		next += batch
		s.eng.Run()
	}
	done := s.lastDone

	res := FlowResult{Admit: admit, Packets: 1}
	if pktBytes > 0 {
		res.Packets = (int64(n) + int64(pktBytes) - 1) / int64(pktBytes)
		if res.Packets < 1 {
			res.Packets = 1
		}
	}
	res.CleanDone = done
	l.cleanFreeAt = done
	res.Done = done
	l.commitRun(done, svc, n)
	if check.Enabled() {
		check.Check(
			func() error {
				// The per-line cumulative-byte schedule must telescope to
				// the coalesced closed form — the bit-identity the fast
				// path is built on.
				if want := start + svc; done != want {
					return fmt.Errorf("cxl: per-line run finished at %v, closed form %v", done, want)
				}
				return nil
			},
			s.CheckInvariants,
			l.CheckInvariants,
		)
	}
	return res
}

// CheckInvariants validates the stream's simulation accounting and returns
// the first violation, if any: every pushed run took exactly one of the
// three simulation paths, and the private engine has fully drained (a
// pending line event after PushRun returns would mean a lost completion).
func (s *Stream) CheckInvariants() error {
	perLineRuns := s.stats.Runs - s.stats.Coalesced - s.stats.FaultFallback
	if perLineRuns < 0 {
		return fmt.Errorf("cxl: stream path counts exceed runs: %+v", s.stats)
	}
	if !s.perLine && perLineRuns != 0 {
		return fmt.Errorf("cxl: coalesced stream recorded %d per-line runs", perLineRuns)
	}
	if s.stats.LineEvents != int64(s.eng.Fired()) {
		return fmt.Errorf("cxl: %d line events recorded, %d fired", s.stats.LineEvents, s.eng.Fired())
	}
	if p := s.eng.Pending(); p != 0 {
		return fmt.Errorf("cxl: stream engine holds %d undrained line events", p)
	}
	return s.eng.CheckInvariants()
}
