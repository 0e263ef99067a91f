// Package sim holds the simulated clock every timing model in the repository
// shares (the CXL link, the GPU and CPU timing models, the training
// schedules), the uniform chunk Schedule those models emit, and a small
// discrete-event engine. The timing models are closed
// forms over Time; the engine drives the per-line reference schedule that
// internal/cxl's tests hold SendFlow to.
//
// Time is measured in integer picoseconds so that sub-nanosecond hardware
// latencies (e.g. the 1 ns Aggregator delay from the paper, §VIII-D) compose
// exactly with multi-millisecond kernel times without floating-point drift.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"

	"teco/internal/conformance/check"
)

// Time is a simulated timestamp in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time with an adaptive unit for debugging output. Float
// formatting is pinned through strconv so the rendering is byte-identical
// across platforms and Go versions (the conformance goldens depend on it).
func (t Time) String() string {
	f3 := func(v float64, unit string) string {
		return strconv.FormatFloat(v, 'f', 3, 64) + unit
	}
	switch {
	case t >= Second:
		return f3(t.Seconds(), "s")
	case t >= Millisecond:
		return f3(t.Milliseconds(), "ms")
	case t >= Microsecond:
		return f3(float64(t)/float64(Microsecond), "us")
	case t >= Nanosecond:
		return f3(t.Nanoseconds(), "ns")
	default:
		return strconv.FormatInt(int64(t), 10) + "ps"
	}
}

// FromSeconds converts floating-point seconds to a Time, saturating instead
// of overflowing for durations beyond the representable range (~106 days).
func FromSeconds(s float64) Time {
	ps := s * float64(Second)
	if ps >= math.MaxInt64 {
		return Time(math.MaxInt64)
	}
	if ps <= 0 {
		return 0
	}
	return Time(ps)
}

// DurationForBytes returns the serialized transfer time of n bytes on a link
// sustaining bytesPerSecond, rounded up to a whole picosecond.
func DurationForBytes(n int64, bytesPerSecond float64) Time {
	if n <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	return FromSeconds(float64(n) / bytesPerSecond)
}

// Schedule is a uniform chunked transfer: a byte count split into N equal
// chunks, the division remainder on the last, chunk i ready at offset
// Span·(i+1)/N, so the last chunk lands exactly at Span. It is how the timing
// models emit a pass's per-layer output (backward's gradients, ADAM's
// parameter writebacks) as a value rather than a slice.
type Schedule struct {
	Span Time
	N    int
	// per is every chunk's byte count but the last's, which is last.
	per, last int64
}

// NewSchedule splits bytes into n chunks over span. n must be positive.
func NewSchedule(span Time, bytes int64, n int) Schedule {
	per := bytes / int64(n)
	return Schedule{Span: span, N: n, per: per, last: bytes - per*int64(n-1)}
}

// Chunk returns chunk i's ready offset and byte count.
func (s Schedule) Chunk(i int) (readyAt Time, bytes int64) {
	bytes = s.per
	if i == s.N-1 {
		bytes = s.last
	}
	return Time(int64(s.Span) * int64(i+1) / int64(s.N)), bytes
}

// Handler is an event callback. Hot paths that schedule millions of events
// (the per-line reference schedule) implement it on a long-lived struct;
// AtHandler recycles the event through the engine's free list, so
// steady-state scheduling performs zero allocations (asserted by
// TestPooledSchedulingAllocs).
type Handler interface {
	// Fire is invoked when the event's time arrives; now is the firing
	// time. The handler may schedule further events.
	Fire(now Time)
}

// event is a scheduled handler, linked through next while on the free list.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	h    Handler
	next *event
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. Engines are not safe for concurrent use;
// every simulation in this repository drives one engine from one goroutine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// free is the head of the event free list (see AtHandler).
	free *event
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// AtHandler schedules h.Fire at absolute time t. The event is recycled into
// the engine's free list when it fires, so steady-state scheduling
// allocates nothing; because the event's lifetime ends inside Step, no
// handle is returned and events cannot be cancelled. Scheduling in the past
// panics: that is always a modelling bug, not a recoverable condition.
func (e *Engine) AtHandler(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.h = t, e.seq, h
	e.seq++
	heap.Push(&e.events, ev)
}

// Step fires the earliest pending event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	if check.Enabled() && ev.at < e.now {
		check.Failf("sim: event time %v before clock %v (monotonicity)", ev.at, e.now)
	}
	e.now = ev.at
	// Recycle before firing so the handler can reschedule without growing
	// the pool.
	h := ev.h
	ev.h = nil
	ev.next = e.free
	e.free = ev
	h.Fire(e.now)
	return true
}

// Run fires events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
