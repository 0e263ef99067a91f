package main

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"time"

	"teco/bench/spec"
)

// suiteSetup builds tecosim from source and loads the golden tree.
func suiteSetup(p params) (bin string, g goldens, setups []float64, err error) {
	setups, err = timeSetups(func(bool) error {
		if bin, err = p.env.build("tecosim"); err != nil {
			return err
		}
		g, err = loadGoldens(p.env.root)
		return err
	})
	return bin, g, setups, err
}

// checkSuiteOutput parses the markdown back into tables and diffs every one
// against the golden tree. It returns the table IDs and the mismatches.
func checkSuiteOutput(stdout []byte, g goldens, seed int64) (ids []string, errs []error) {
	tabs, err := parseMarkdown(string(stdout))
	if err != nil {
		return nil, []error{err}
	}
	for _, t := range tabs {
		ids = append(ids, t.ID)
		errs = append(errs, g.check(t, seed)...)
	}
	return ids, errs
}

// runSuite times whole `tecosim all` processes. An op is one result table;
// a sample, and a window, is one process. One process takes far longer than
// most values of --seconds, so a run is usually exactly one process.
func runSuite(p params) (*result, error) {
	bin, g, setups, err := suiteSetup(p)
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: "suite", Seed: p.seed, SetupS: setups, OpUnit: "tables", SampleUnit: "one tecosim all process",
		TailWant: 0.9, Exact: map[string]string{},
	}
	args := []string{"-markdown", "-seed", strconv.FormatInt(p.seed, 10), "-workers", strconv.Itoa(spec.Workers()), "all"}
	phase := p.rec.begin("suite", "bench", 0, -1)
	var windows []window // one per process
	for start := time.Now(); len(windows) == 0 || time.Since(start).Seconds() < p.seconds; {
		sp := p.rec.begin("tecosim all", "experiments", len(windows), phase)
		stdout, u, err := p.env.runChild(p.ctx, bin, args...)
		p.rec.end(sp)
		if err != nil {
			return nil, err // a non-zero exit has no tables to count: nothing was measured
		}
		ids, errs := checkSuiteOutput(stdout, g, p.seed)
		if len(errs) > 0 {
			return nil, fmt.Errorf("suite output fails the golden check (%d mismatches), first: %v", len(errs), errs[0])
		}
		digest := fmt.Sprintf("%x", sha256.Sum256(stdout))
		if prev, ok := r.Exact["sim_digest"]; ok && prev != digest {
			return nil, fmt.Errorf("tecosim all is not deterministic: stdout digest %s then %s", prev, digest)
		}
		r.Exact["sim_digest"] = digest
		r.Exact["tables"] = strings.Join(ids, ",")
		r.Attempted += len(ids)
		r.PeakRSSMiB = max(r.PeakRSSMiB, u.peakRSSMiB)
		windows = append(windows, window{ops: float64(len(ids)), wall: u.wall, cpu: u.cpu, samplesMs: []float64{float64(u.wall) / 1e6}})
	}
	r.useBest(windows)
	p.rec.end(phase)
	return r, nil
}

// suiteLayers is the suite's traced run: the same `all` process (for the
// pool and memo ratios), then one fresh process per experiment id, then
// process start-up cost.
func suiteLayers(p params, r *result) error {
	bin, err := p.env.build("tecosim")
	if err != nil {
		return err
	}
	// `all` leaves a few registered ids out; the memo ratio compares it
	// with the ids it does run (fig2 prints tables fig2a and fig2b).
	inAll := func(id string) bool {
		for _, t := range strings.Split(r.Exact["tables"], ",") {
			if t == id || (len(t) == len(id)+1 && strings.HasPrefix(t, id)) {
				return true
			}
		}
		return false
	}
	phase := p.rec.begin("per-id", "bench", 0, -1)
	var sumCPU, sumCPUInAll float64
	for i, id := range spec.ExperimentIDs {
		sp := p.rec.begin("tecosim "+id, "experiments", i+1, phase)
		_, u, err := p.env.runChild(p.ctx, bin, "-seed", strconv.FormatInt(p.seed, 10), "-workers", strconv.Itoa(spec.Workers()), id)
		p.rec.end(sp)
		if err != nil {
			return err
		}
		r.Layer["experiments."+id+"_s"] = u.wall.Seconds()
		sumCPU += u.cpu.Seconds()
		if inAll(id) {
			sumCPUInAll += u.cpu.Seconds()
		}
	}
	p.rec.end(phase)
	r.Layer["experiments.sum_cpu_s"] = sumCPU
	r.Layer["experiments.memo_pool_ratio"] = r.CPUS / sumCPUInAll
	r.Layer["suite.parallel_efficiency"] = r.CPUS / (r.WallS * float64(spec.Workers()))
	var starts []float64
	for i := 0; i < 9; i++ {
		_, u, err := p.env.runChild(p.ctx, bin, "-list")
		if err != nil {
			return err
		}
		starts = append(starts, float64(u.wall)/1e6)
	}
	r.Layer["proc.start_ms"] = median(starts)
	return nil
}
