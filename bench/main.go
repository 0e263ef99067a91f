// Command bench is the repository's benchmark: seven black-box workloads
// over the shipped binaries and the root teco package, six end-to-end
// metrics every workload reports, correctness checks on every output, and a
// traced mode that adds per-layer attribution. See README.md beside this
// file and BENCHMARK.json at the repository root.
//
//	go run -C bench . --workload suite --seed 42 --seconds 10 --trace 0
//	go run -C bench .                       # every workload, plain
//	go run -C bench . --trace 1             # every workload, traced
//	go run -C bench . -compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"teco/bench/spec"
)

// params is what a workload is run with. scale shrinks the fixed work for
// the smoke test (1 in every real run); rec is nil unless tracing.
type params struct {
	ctx     context.Context
	env     *env
	seed    int64
	seconds float64
	scale   float64
	rec     *recorder
}

// scaled shrinks a fixed work size by p.scale, never below one.
func (p params) scaled(n int) int {
	return max(1, int(float64(n)*p.scale))
}

// result is one run of one workload, before the end-to-end metrics are
// derived from it.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Attempted and Failed count operations; a failed, refused or
	// wrong-answer operation is failed and contributes no latency sample.
	Attempted int `json:"ops_attempted"`
	Failed    int `json:"ops_failed"`
	// Ops is the work completed correctly inside the reported window, in
	// the workload's own unit (OpUnit); WallS, CPUS that window's wall time
	// and the CPU time of the program under test (see useBest).
	// WindowRates is ops/s of every window of the run, in order.
	WindowRates []float64 `json:"window_ops_per_s"`
	Ops         float64   `json:"ops"`
	OpUnit      string    `json:"op_unit"`
	WallS       float64   `json:"wall_s"`
	CPUS        float64   `json:"cpu_s"`
	PeakRSSMiB  float64   `json:"peak_rss_mib"`
	SetupS      []float64 `json:"setup_s"`
	// SamplesMs are the timed samples; SampleUnit says what one is.
	SamplesMs  []float64 `json:"-"`
	SampleUnit string    `json:"sample_unit"`
	TailWant   float64   `json:"-"`
	Latency    summary   `json:"latency_ms"`
	// Exact holds digests and counts that must repeat exactly for the same
	// workload and seed on any commit that does not change behaviour.
	Exact map[string]string `json:"exact"`
	// Layer holds the workload's own layer figures; a traced run adds the
	// probes' and keeps the ones spec.PerLayer lists for the workload.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Notes are caveats printed with the result.
	Notes   []string           `json:"notes,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Env     envBlock           `json:"env"`
}

// window is one slice of a run's measured time: the ops completed in it,
// its wall and CPU time, and its timed samples.
type window struct {
	ops       float64
	wall, cpu time.Duration
	samplesMs []float64
}

// useBest reports the run's best window: the one with the highest
// throughput. The defining box flips, a few seconds at a time, between a
// fast state and one about 1.3x slower (a bare ALU loop shows it), and the
// share of a run spent in each is what makes two runs differ. A window
// mostly in the fast state exists in nearly every run, so its figures
// repeat far better than the whole run's; the rule is the same on every
// commit. Every window's ops were checked and count as attempted.
func (r *result) useBest(ws []window) {
	best := 0
	for i, w := range ws {
		rate := w.ops / w.wall.Seconds()
		r.WindowRates = append(r.WindowRates, rate)
		if rate > r.WindowRates[best] {
			best = i
		}
	}
	b := ws[best]
	r.Ops, r.WallS, r.CPUS, r.SamplesMs = b.ops, b.wall.Seconds(), b.cpu.Seconds(), b.samplesMs
}

// finish derives the six end-to-end metrics.
func (r *result) finish() {
	r.Latency = summarize(r.SamplesMs, r.TailWant)
	r.Metrics = map[string]float64{
		"setup_s":       median(r.SetupS),
		"ops_per_s":     r.Ops / r.WallS,
		"p50_ms":        r.Latency.P50,
		"tail_ms":       r.Latency.Tail,
		"cpu_ms_per_op": 1e3 * r.CPUS / r.Ops,
		"peak_rss_mib":  r.PeakRSSMiB,
	}
}

// timeSetups runs setup SetupReps times and returns each duration; setup_s
// is their median, so a one-off cost (the first build in a checkout) does
// not set it. Every repetition but the last is torn down again.
func timeSetups(setup func(last bool) error) ([]float64, error) {
	var out []float64
	for i := 0; i < spec.SetupReps; i++ {
		t0 := time.Now()
		if err := setup(i == spec.SetupReps-1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

var workloads = map[string]func(params) (*result, error){
	"suite":          runSuite,
	"train":          runTrain,
	"model-simulate": runSimulate,
	"model-baseline": runBaseline,
	"model-replay":   runReplay,
	"serve-cold":     runServeCold,
	"serve-warm":     runServeWarm,
}

// envBlock stamps every result with where it was measured.
type envBlock struct {
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	W                int     `json:"w"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	CPUModel         string  `json:"cpu_model"`
	Load1            float64 `json:"load1_at_start"`
	Noisy            bool    `json:"noisy"`
	ParallelMeasured bool    `json:"parallel_measured"`
}

func readEnv(root string) envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: spec.Workers(),
		GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown",
	}
	// With one CPU nothing runs in parallel: suite wall time then says
	// nothing about the pool, and the result is labelled so.
	e.ParallelMeasured = e.NProc > 1
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Noisy = e.Load1 > float64(e.NProc)
	return e
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all of them in turn)")
	seed := flag.Int64("seed", 42, "seed for every generated input")
	seconds := flag.Float64("seconds", spec.RunSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: plain run, end-to-end metrics")
	out := flag.String("out", "", "append one JSON line per run to this file (default bench/out/results.jsonl)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		// No result line is printed on failure: a half-measured or
		// wrong-answer run must not be mistaken for a measurement.
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, outPath string) error {
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if workloads[n] == nil {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if outPath == "" {
		outPath = filepath.Join(e.out, "results.jsonl")
	}
	eb := readEnv(e.root)
	if eb.Noisy {
		fmt.Fprintf(os.Stderr, "bench: WARNING: 1-min load average %.2f exceeds %d CPUs; results stamped noisy\n", eb.Load1, eb.NProc)
	}

	var rec *recorder
	if traced {
		rec = newRecorder("")
		// Spans stay in memory and are written once, when the run ends.
		defer func() {
			if err := rec.writeChrome(filepath.Join(e.out, "trace.json")); err != nil {
				fmt.Fprintln(os.Stderr, "bench: writing trace.json:", err)
			}
		}()
	}
	var last *result
	for _, n := range names {
		p := params{ctx: ctx, env: e, seed: seed, seconds: seconds, scale: 1}
		var r *result
		if traced {
			r, err = runTraced(n, p, rec)
		} else {
			r, err = workloads[n](p)
		}
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		r.Env = eb
		r.finish()
		report(os.Stdout, r)
		if err := appendJSONLine(outPath, r); err != nil {
			return err
		}
		last = r
	}
	return printContractLine(last)
}

// report prints every end-to-end metric by name with its unit, the sample
// count and the failure count, then the traced run's layer metrics.
func report(w *os.File, r *result) {
	traced := ""
	if r.Traced {
		traced = ", traced"
	}
	fmt.Fprintf(w, "== %s (seed %d%s) — ops_failed/ops_attempted %d/%d; %.0f %s in %.2fs; %d samples of %q, tail is %s\n",
		r.Workload, r.Seed, traced,
		r.Failed, r.Attempted, r.Ops, r.OpUnit, r.WallS, r.Latency.N, r.SampleUnit, r.Latency.TailPct)
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, "  %-14s %14.6g %-5s (%s is better, bound %.0f%%)\n", m.Name, r.Metrics[m.Name], m.Unit, m.Better, 100*m.Bound)
	}
	for _, k := range sortedKeys(r.Exact) {
		fmt.Fprintf(w, "  exact %-24s %s\n", k, r.Exact[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.Traced {
		for _, m := range spec.PerLayer {
			if m.MeasuredOn(r.Workload) {
				fmt.Fprintf(w, "  layer %-36s %14.6g %s\n", m.Name, r.Layer[m.Name], m.Unit)
			}
		}
	}
	if !r.Env.ParallelMeasured {
		fmt.Fprintln(w, "  parallel_measured: false — one CPU; wall-time figures say nothing about the worker pool")
	}
}

func appendJSONLine(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printContractLine prints the last line of standard output the PR driver
// reads: a plain run carries every end-to-end metric, a traced run every
// per-layer metric (0 for a layer not on the workload's path).
func printContractLine(r *result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Traced {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = mv{r.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = mv{r.Metrics[m.Name], m.Unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
