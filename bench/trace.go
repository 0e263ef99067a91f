package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the span that caused this one
// (-1 for a root). Times are offsets from the recorder's start.
type span struct {
	Name, Layer, Workload string
	Start, End            time.Duration
	Op, Parent            int
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: begin and end do nothing, so the plain run and the
// traced run share one code path.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its index, or -1 when tracing is off.
func (r *recorder) begin(name, layer string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Workload: r.workload, Start: now, End: -1, Op: op, Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its children cover. Children may overlap each other (W clients under one
// phase span), so their intervals are merged before subtracting.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{lo, hi})
			}
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end time.Duration
		end = s.Start
		for _, k := range iv {
			if k[1] <= end {
				continue
			}
			covered += k[1] - max(k[0], end)
			end = k[1]
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format (complete "X"
// events, microseconds), which Perfetto and chrome://tracing load. Each
// operation gets its own track.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(r.spans)
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]any{"workload": s.Workload, "span": i, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
