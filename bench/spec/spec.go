// Package spec is the benchmark's own description of itself: workloads,
// end-to-end metrics with their regression bounds, and every per-layer
// metric with the end-to-end metric it is predicted to move. It is pure
// data, shared by the driver (teco/bench) and the layer probes
// (teco/bench/probes); BENCHMARK.json at the repository root repeats the
// part the PR driver reads, and bench_test.go checks the two agree.
package spec

import "runtime"

// RunSeconds is how long one run measures (BENCHMARK.json run_seconds).
const RunSeconds = 10

// Fixed work sizes. They are constants so any two commits run identical
// work; no flag changes them (tests pass a scale factor by argument).
const (
	TrainSteps    = 50      // fine-tuning steps per FineTune call
	TrainPreSteps = 50      // pre-training steps per FineTune call
	TrainBatch    = 32      // minibatch size
	SimBatchSize  = 50      // TECO sweeps per timed sample (one sweep = 3 systems x grid)
	ReplayParams  = 1 << 16 // FP32 words per replay tensor (4096 cache lines)
	WarmKeys      = 200     // keys stored before the warm phase
	VerifyKeys    = 200     // cold keys re-read after the restart
	SetupReps     = 3       // set-ups per run; setup_s is their median
	Windows       = 5       // equal slices of a run's measured time; the run reports its best one
)

// Workers is W, the load the benchmark offers: min(nproc, 4). It sizes
// tecosim -workers and the number of closed-loop HTTP clients.
func Workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// Workload is one set of inputs the benchmark runs.
type Workload struct{ Name, Why string }

// The seven workloads are the issue's four families (suite, train, model,
// serve) with the multi-phase ones split, because the driver contract has
// every workload report every end-to-end metric: a phase that needs its own
// throughput and latency gate has to be a workload of its own.
var Workloads = []Workload{
	{"suite", "one fresh `tecosim -markdown -workers W all` process: the researcher's path; numeric layers do >95% of the work, pool and run memo turn CPU time into wall time"},
	{"train", "in-process teco.FineTune over mlp, attention and stack, serial: the library user's path and the only one reaching the attention/stack kernels; no pool, memo or disk"},
	{"model-simulate", "teco.Simulate for the three TECO systems over Table III models x batches: the timing plane (core, sim, cxl, gpusim, cpusim) alone; also checks paper fidelity"},
	{"model-baseline", "teco.Simulate(ZeroOffload) over the same grid: the baseline engine (zero) that dominates every cold paper request; allocation-heavy"},
	{"model-replay", "teco.ReplayUpdate full/DBA-2/invalidation and ReplayGradients on a seeded 2^16-word tensor pair: the functional protocol plane (coherence, cxl codec, dba, tensor, cache)"},
	{"serve-cold", "tecosimd with W closed-loop clients, every request a never-seen key, half cheap plane sweeps and half paper tables: compute + diskcache.Put + admission + singleflight"},
	{"serve-warm", "tecosimd restarted over a stored cache, W closed-loop clients re-reading stored keys: diskcache.Get + request parse + fingerprint + JSON envelope + loopback"},
}

// Metric is one end-to-end metric. Bound is the share of the parent's
// median by which it may worsen before a change is rejected.
type Metric struct {
	Name, Unit, Better string
	Bound              float64
}

// Every workload reports every end-to-end metric; what an "op" and a timed
// "sample" are on each workload is in bench/README.md.
//
// Every bound is the contract's ceiling, 0.25. The box this was defined on
// cannot resolve less: a bare ALU loop flips between two speeds 1.3x apart
// every few seconds, and spells of minutes slow the memory- and
// syscall-heavy workloads by more, so the interquartile spread of ten runs
// is 6-25% of the median depending on the workload and the hour
// (bench/README.md has the table). A tighter bound would be reported as
// unresolved, not held.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.25},
}

// Move says a layer metric should move end-to-end Metric on Workload.
type Move struct{ Metric, Workload string }

// LayerMetric is one per-layer metric. The traced run of a workload
// measures exactly the layer metrics with a Move on that workload and
// reports 0 for the rest: a non-zero value means "on this workload's path".
type LayerMetric struct {
	Name, Unit, Better string
	Moves              []Move
}

// MeasuredOn reports whether the traced run of workload w measures m.
func (m LayerMetric) MeasuredOn(w string) bool {
	for _, mv := range m.Moves {
		if mv.Workload == w {
			return true
		}
	}
	return false
}

// ExperimentIDs is the registry (`tecosim -list` minus "all") as of the PR
// that defined the benchmark; the suite's traced run times one process per
// id. Metric names are fixed in BENCHMARK.json, so an id added later needs a
// benchmark PR to be timed on its own.
var ExperimentIDs = []string{
	"table1", "fig2", "ablation-inval", "fig11", "table5", "fig10", "fig12",
	"volume", "table6", "fig13", "table7", "table8", "lammps", "tune-act",
	"ablation-dpu", "time-to-loss", "linkspeed", "faults", "recovery", "fabric",
	"fabric-faults", "layers", "layers-policy", "tiering", "tiering-policy",
}

// PlaneIDs and PaperIDs are the two request classes of the serve
// workloads. Plane requests are cheap sweeps reached through HTTP knobs;
// paper requests are seed-independent timing tables with a golden to diff
// against, kept cold by a fresh seed in the key.
var (
	PlaneIDs = []string{"layers", "layers-policy", "tiering", "tiering-policy", "fabric"}
	PaperIDs = []string{"table1", "fig11", "fig12", "volume", "table6", "ablation-dpu", "ablation-inval", "linkspeed"}
)

func moves(metric string, workloads ...string) []Move {
	out := make([]Move, len(workloads))
	for i, w := range workloads {
		out[i] = Move{metric, w}
	}
	return out
}

func join(ms ...[]Move) []Move {
	var out []Move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

// PerLayer lists every per-layer metric. Names are <module>.<metric>.
var PerLayer = perLayer()

func perLayer() []LayerMetric {
	var out []LayerMetric
	add := func(name, unit, better string, mv []Move) {
		out = append(out, LayerMetric{name, unit, better, mv})
	}
	// One tecosim process per id. table5 is the suite's critical path, so
	// it alone moves wall time; every other id moves CPU time only (the
	// timing ids < 0.3 s together). What the timing ids cost the daemon
	// shows in server.cold_*_p50_ms and zero.step_us instead.
	for _, id := range ExperimentIDs {
		mv := moves("cpu_ms_per_op", "suite")
		if id == "table5" {
			mv = join(mv, moves("p50_ms", "suite"), moves("ops_per_s", "suite"))
		}
		add("experiments."+id+"_s", "s", "lower", mv)
	}
	add("experiments.sum_cpu_s", "s", "lower", moves("cpu_ms_per_op", "suite"))
	add("experiments.memo_pool_ratio", "ratio", "lower", moves("cpu_ms_per_op", "suite"))
	add("suite.parallel_efficiency", "ratio", "higher", moves("p50_ms", "suite"))
	add("proc.start_ms", "ms", "lower", moves("p50_ms", "suite"))

	trainAndSuite := join(moves("ops_per_s", "train"), moves("cpu_ms_per_op", "suite"))
	for _, arch := range []string{"mlp", "attention", "stack"} {
		mv := moves("ops_per_s", "train")
		if arch == "mlp" { // every registered experiment trains mlp only
			mv = trainAndSuite
		}
		add("realtrain.step_ms."+arch, "ms", "lower", mv)
		add("realtrain.fwdbwd_ms."+arch, "ms", "lower", mv)
		add("realtrain.allocs_per_step."+arch, "count", "lower", mv)
	}
	add("kernels.addmatvec_gflops", "GFLOP/s", "higher", trainAndSuite)
	add("kernels.backproj_gflops", "GFLOP/s", "higher", trainAndSuite)
	add("optim.step_ns_per_param", "ns", "lower", trainAndSuite)
	add("optim.stepfused_ns_per_param", "ns", "lower", trainAndSuite)
	add("dba.mergewords_ns_per_word", "ns", "lower", trainAndSuite)
	add("dba.mergewords_w_ns_per_word", "ns", "lower", moves("cpu_ms_per_op", "suite"))
	add("dba.scanchanged_ns_per_word", "ns", "lower", trainAndSuite)
	add("dba.scanchanged_w_ns_per_word", "ns", "lower", moves("cpu_ms_per_op", "suite"))
	add("checkpoint.checksum_mb_per_s", "MB/s", "higher", trainAndSuite)
	add("checkpoint.save_ms", "ms", "lower", moves("cpu_ms_per_op", "suite"))
	add("parallel.run_ns_per_task", "ns", "lower", moves("p50_ms", "suite"))
	add("parallel.forchunks_ns_per_chunk", "ns", "lower", moves("p50_ms", "suite"))

	replay := moves("ops_per_s", "model-replay")
	add("dba.aggregate_ns_per_line", "ns", "lower", replay)
	add("dba.disaggregate_ns_per_line", "ns", "lower", replay)
	add("tensor.classify_ns_per_word", "ns", "lower", replay)
	add("cxl.sendflow_ns", "ns", "lower", replay)
	add("cxl.packet_codec_ns", "ns", "lower", replay)
	add("cxl.crc16_mb_per_s", "MB/s", "higher", join(replay, moves("ops_per_s", "train")))
	add("coherence.write_ns_per_line", "ns", "lower", replay)
	add("coherence.flush_ns_per_line", "ns", "lower", replay)
	add("cache.access_ns", "ns", "lower", replay)
	for _, k := range []string{"full", "dba", "inval", "grad"} {
		add("core.replay_us_per_line."+k, "us", "lower", replay)
	}
	add("core.replay_self_pct", "%", "lower", replay)

	simulate := moves("ops_per_s", "model-simulate")
	add("sim.event_ns", "ns", "lower", simulate)
	for _, k := range []string{"cxl", "dba", "inval"} {
		add("core.step_us."+k, "us", "lower", simulate)
	}
	// Simulated-time figures; every other metric is host time.
	add("model.fidelity_err_pct", "%", "lower", simulate)
	add("model.time_reduction_avg_pct", "%", "higher", simulate)
	add("model.time_reduction_max_pct", "%", "higher", simulate)
	add("model.comm_reduction_avg_pct", "%", "higher", simulate)

	zero := join(moves("ops_per_s", "model-baseline"), moves("p50_ms", "serve-cold"))
	add("zero.step_us", "us", "lower", zero)
	add("zero.alloc_bytes_per_step", "B", "lower", zero)

	cold, warm := moves("p50_ms", "serve-cold"), moves("p50_ms", "serve-warm")
	add("diskcache.get_us", "us", "lower", warm)
	add("diskcache.put_ms", "ms", "lower", cold)
	add("diskcache.open_ms_per_1k", "ms", "lower", moves("setup_s", "serve-warm"))
	add("server.handler_warm_us", "us", "lower", warm)
	add("server.decode_tables_us", "us", "lower", warm)
	add("server.cold_plane_p50_ms", "ms", "lower", cold)
	add("server.cold_paper_p50_ms", "ms", "lower", cold)
	both := join(moves("cpu_ms_per_op", "serve-cold"), moves("cpu_ms_per_op", "serve-warm"))
	add("serve.restart_ms", "ms", "lower", join(moves("setup_s", "serve-warm"), moves("setup_s", "serve-cold")))
	add("serve.peak_rss_mib", "MiB", "lower", join(moves("peak_rss_mib", "serve-cold"), moves("peak_rss_mib", "serve-warm")))
	add("serve.cpu_s", "s", "lower", both)
	// Exact counts from /statz at the end of the phase.
	add("server.hits", "count", "higher", moves("ops_per_s", "serve-warm"))
	add("server.computes", "count", "lower", moves("ops_per_s", "serve-cold"))
	add("server.coalesced", "count", "lower", moves("ops_per_s", "serve-cold"))
	add("server.shed", "count", "lower", join(moves("ops_per_s", "serve-cold"), moves("ops_per_s", "serve-warm")))
	add("diskcache.corrupt_dropped", "count", "lower", join(moves("ops_per_s", "serve-cold"), moves("ops_per_s", "serve-warm")))
	add("diskcache.put_errors", "count", "lower", moves("ops_per_s", "serve-cold"))

	var everywhere []Move
	for _, w := range Workloads {
		everywhere = append(everywhere, Move{"ops_per_s", w.Name})
	}
	add("trace.overhead_pct", "%", "lower", everywhere)
	return out
}
