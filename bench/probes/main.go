// Command probes times single layers from outside, through public functions
// with workload-sized inputs, for the traced run of teco/bench. It is a
// package of its own because it reaches into internal packages whose APIs
// may change: if it stops building, the traced run loses these figures but
// the end-to-end benchmark still runs.
//
// One file per layer (layer_<name>.go); each contributes a group to the
// table below. Work per probe is fixed, never timed out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"teco/bench/spec"
)

// ctx is what a probe group is given.
type ctx struct {
	seed int64
	tmp  string // scratch directory inside the checkout
	w    int    // spec.Workers()
	// got holds every metric measured so far, wanted or not, for groups
	// that set their own figure against earlier ones.
	got map[string]float64
}

// group measures one layer and returns its metrics by spec name.
type group struct {
	layer   string
	metrics []string
	run     func(c *ctx) (map[string]float64, error)
}

var groups = []group{
	realtrainGroup("mlp"), realtrainGroup("attention"), realtrainGroup("stack"),
	kernelsGroup, optimGroup, dbaWordsGroup, dbaLinesGroup, checkpointGroup,
	simGroup, cxlGroup, coherenceGroup, coreGroup, zeroGroup, replayGroup,
	parallelGroup, diskcacheGroup, serverGroup,
}

// medianTime runs fn reps times and returns the median duration: the
// figure a probe reports is a median of fixed-work repetitions.
func medianTime(reps int, fn func()) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return d[reps/2]
}

func main() {
	workload := flag.String("workload", "", "measure the layer metrics on this workload's path")
	seed := flag.Int64("seed", 42, "seed for generated inputs")
	tmp := flag.String("tmp", "", "scratch directory")
	flag.Parse()
	if *tmp == "" {
		fmt.Fprintln(os.Stderr, "probes: -tmp is required")
		os.Exit(2)
	}
	wanted := map[string]bool{}
	for _, m := range spec.PerLayer {
		if m.MeasuredOn(*workload) {
			wanted[m.Name] = true
		}
	}
	c := &ctx{seed: *seed, tmp: *tmp, w: spec.Workers(), got: map[string]float64{}}
	out := map[string]float64{}
	for _, g := range groups {
		run := false
		for _, m := range g.metrics {
			run = run || wanted[m]
		}
		if !run {
			continue
		}
		got, err := g.run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "probes: %s: %v\n", g.layer, err)
			os.Exit(1)
		}
		for _, m := range g.metrics {
			v, ok := got[m]
			if !ok {
				fmt.Fprintf(os.Stderr, "probes: %s did not report %s\n", g.layer, m)
				os.Exit(1)
			}
			c.got[m] = v
			if wanted[m] {
				out[m] = v
			}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "probes:", err)
		os.Exit(1)
	}
}
