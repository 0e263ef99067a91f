package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"teco/bench/spec"
)

// runTraced is the traced run of one workload. It runs the workload for
// half of --seconds with tracing off and half with it on — the difference
// is the tracing overhead — then adds the layer metrics: the workload's own
// (from spans and from the program's counters) and the layer probes'. Its
// end-to-end figures are never used as measurements.
func runTraced(name string, p params, rec *recorder) (*result, error) {
	rec.workload = name
	traced := p
	traced.rec = rec
	var r *result
	var err error
	overhead := 0.0
	if name == "suite" {
		// One `tecosim all` process is far longer than half a run, and a
		// span around a child process costs it nothing: suite runs once,
		// traced, and reports no overhead.
		if r, err = runSuite(traced); err != nil {
			return nil, err
		}
		r.Layer = map[string]float64{}
		if err := suiteLayers(traced, r); err != nil {
			return nil, err
		}
	} else {
		traced.seconds = p.seconds / 2
		plain := traced
		plain.rec = nil
		pr, err := workloads[name](plain)
		if err != nil {
			return nil, err
		}
		if r, err = workloads[name](traced); err != nil {
			return nil, err
		}
		plainRate := pr.Ops / pr.WallS
		overhead = 100 * (plainRate - r.Ops/r.WallS) / plainRate
	}
	r.Traced = true
	if r.Layer == nil {
		r.Layer = map[string]float64{}
	}
	r.Layer["trace.overhead_pct"] = overhead
	probed, err := runProbes(p, name)
	if err != nil {
		// The probes reach into internal packages; a refactor may break
		// their build. That costs the layer figures, not the run.
		fmt.Fprintf(os.Stderr, "bench: WARNING: layer probes unavailable, their metrics read 0: %v\n", err)
		r.Notes = append(r.Notes, "layer probes unavailable: "+err.Error())
	}
	for k, v := range probed {
		r.Layer[k] = v
	}
	// Keep exactly the metrics the spec says this workload measures.
	for _, m := range spec.PerLayer {
		if !m.MeasuredOn(name) {
			delete(r.Layer, m.Name)
		}
	}
	return r, nil
}

// runProbes builds the layer probes (a package of their own, so that a
// change to an internal API cannot break the end-to-end run) and runs the
// ones on this workload's path. They print one JSON object.
func runProbes(p params, workload string) (map[string]float64, error) {
	bin := filepath.Join(p.env.bin, "probes")
	build := exec.Command("go", "build", "-o", bin, "./probes")
	build.Dir = filepath.Join(p.env.root, "bench")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./probes: %v: %.400s", err, out)
	}
	out, _, err := p.env.runChild(p.ctx, bin, "-workload", workload, "-seed", strconv.FormatInt(p.seed, 10), "-tmp", p.env.tmp)
	if err != nil {
		return nil, err
	}
	var probed map[string]float64
	if err := json.Unmarshal(out, &probed); err != nil {
		return nil, fmt.Errorf("probes output: %w", err)
	}
	return probed, nil
}
