package experiments

import (
	"fmt"
	"slices"

	"teco/internal/compressbl"
	"teco/internal/core"
	"teco/internal/gnn"
	"teco/internal/md"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/realtrain"
	"teco/internal/tensor"
	"teco/internal/zero"
)

// RealTrainSteps is the fine-tuning length used by the accuracy
// experiments (kept moderate so the full suite runs in minutes; increase
// for tighter statistics).
const RealTrainSteps = 800

// evalBatches are the batch sizes of Fig 11 / Table IV.
var evalBatches = []int{4, 8, 16}

// Every generator takes the full Options: its grid runs on the option's
// sweep pool and its fine-tuning runs come from the shared run cache. Grid
// points always get fresh engines — the timing engines carry internal state
// — and rows land in grid order regardless of completion order, so a table
// is byte-identical at every worker count (asserted by parallel_test.go).

// TableI reproduces Table I: percentage of training time spent in
// communication exposed to the critical path (ZeRO-Offload,
// Bert-large-cased).
func TableI(opt Options) *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Exposed communication share of training time (ZeRO-Offload, Bert-large-cased)",
		Header: []string{"Batch size", "Paper", "Measured"},
	}
	paper := map[int]string{4: "42.24%", 8: "37.87%", 16: "28.65%", 20: "25.95%"}
	m := modelzoo.BertLargeCased()
	batches := []int{4, 8, 16, 20}
	for _, row := range grid(opt, len(batches), func(i int) []string {
		b := batches[i]
		r := zero.NewEngine().Step(m, b)
		return []string{fmt.Sprint(b), paper[b], pct(r.CommFraction())}
	}) {
		t.AddRow(row...)
	}
	t.Note("gradient transfers partially exposed during backward; parameter transfers largely exposed after ADAM")
	return t
}

// Fig2 reproduces Figure 2: the distribution of value-changed bytes in
// parameters (a) and gradients (b) across two consecutive training steps,
// sampled over a real fine-tuning run.
func Fig2(opt Options) []*Table {
	r := runTrain(opt, realtrain.Config{Steps: RealTrainSteps, Seed: opt.Seed})
	params := &Table{
		ID:     "fig2a",
		Title:  "Value-changed bytes in parameters across consecutive steps",
		Header: []string{"Step", "Last byte", "Last two bytes", "Other", "Unchanged(all)"},
	}
	grads := &Table{
		ID:     "fig2b",
		Title:  "Value-changed bytes in gradients across consecutive steps",
		Header: []string{"Step", "Last byte", "Last two bytes", "Other", "Unchanged(all)"},
	}
	for _, s := range r.Samples {
		if s.Step == 0 {
			continue
		}
		params.AddRow(fmt.Sprint(s.Step),
			pct(s.ParamDist.FracOfChanged(tensor.LastByte)),
			pct(s.ParamDist.FracOfChanged(tensor.LastTwoBytes)),
			pct(s.ParamDist.FracOfChanged(tensor.Other)),
			pct(s.ParamDist.FracUnchanged()))
		grads.AddRow(fmt.Sprint(s.Step),
			pct(s.GradDist.FracOfChanged(tensor.LastByte)),
			pct(s.GradDist.FracOfChanged(tensor.LastTwoBytes)),
			pct(s.GradDist.FracOfChanged(tensor.Other)),
			pct(s.GradDist.FracUnchanged()))
	}
	pd, gd := r.AggregateDistributions()
	params.Note("aggregate: %.1f%% of changed parameters confined to the low two bytes (paper: ~80%% in case 1); %.1f%% of all parameters unchanged (paper: 44.5%%)",
		100*(pd.FracOfChanged(tensor.LastByte)+pd.FracOfChanged(tensor.LastTwoBytes)), 100*pd.FracUnchanged())
	grads.Note("aggregate: %.1f%% of changed gradients touch higher bytes (paper: all bytes change frequently)",
		100*gd.FracOfChanged(tensor.Other))
	return []*Table{params, grads}
}

// AblationInvalidation reproduces the §IV-A2 measurement: stock
// invalidation-based CXL versus the update extension (paper: on-demand
// transfers cost +56.6% training time on average, up to 99.7% on T5).
func AblationInvalidation(opt Options) *Table {
	t := &Table{
		ID:     "ablation-inval",
		Title:  "Update protocol vs stock invalidation MESI (batch 4)",
		Header: []string{"Model", "Update total", "Invalidation total", "Penalty"},
	}
	models := modelzoo.EvaluationModels()
	type cell struct {
		row []string
		pen float64
	}
	cells := grid(opt, len(models), func(i int) cell {
		m := models[i]
		b := batchFor(m, 4)
		ru := core.MustEngine(core.Config{}).Step(m, b)
		ri := core.MustEngine(core.Config{Invalidation: true}).Step(m, b)
		pen := float64(ri.Total())/float64(ru.Total()) - 1
		return cell{
			row: []string{m.Name, ms(ru.Total().Milliseconds()), ms(ri.Total().Milliseconds()), pct(pen)},
			pen: pen,
		}
	})
	var sum float64
	for _, c := range cells {
		sum += c.pen
		t.AddRow(c.row...)
	}
	t.Note("average penalty %.1f%% (paper: 56.6%% average, up to 99.7%%)", 100*sum/float64(len(cells)))
	return t
}

func batchFor(m modelzoo.Model, b int) int {
	if m.FullGraphOnly {
		return 1
	}
	return b
}

// Fig11TableIV reproduces Figure 11 and Table IV: training-time speedup of
// TECO-CXL and TECO-Reduction over ZeRO-Offload per model and batch size.
// The model x batch grid runs concurrently, one fresh engine trio per point.
func Fig11TableIV(opt Options) *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "Speedup over ZeRO-Offload (Fig 11 / Table IV)",
		Header: []string{"Model", "Batch", "TECO-CXL", "TECO-Reduction", "Paper (Reduction)"},
	}
	paper := map[string]map[int]string{
		"GPT2":              {4: "1.82x", 8: "1.52x", 16: "1.32x"},
		"Albert-xxlarge-v1": {4: "1.25x", 8: "1.23x", 16: "1.08x"},
		"Bert-large-cased":  {4: "1.6x", 8: "1.62x", 16: "1.41x"},
		"T5-large":          {4: "1.73x", 8: "1.58x", 16: "OOM"},
	}
	type point struct {
		m modelzoo.Model
		b int
	}
	var points []point
	for _, m := range modelzoo.EvaluationModels() {
		batches := evalBatches
		if m.FullGraphOnly {
			batches = []int{1}
		}
		for _, b := range batches {
			points = append(points, point{m, b})
		}
	}
	for _, row := range grid(opt, len(points), func(i int) []string {
		m, b := points[i].m, points[i].b
		pv := "-"
		if pm, ok := paper[m.Name]; ok {
			if v, ok := pm[b]; ok {
				pv = v
			}
		}
		if !m.FullGraphOnly && !m.FitsOnV100(b) {
			// The memory model reproduces the paper's T5 batch-16
			// out-of-memory on the 32GB V100.
			return []string{m.Name, fmt.Sprint(b), "OOM", "OOM", pv}
		}
		rb := zero.NewEngine().Step(m, b)
		return []string{m.Name, fmt.Sprint(b),
			f2(core.MustEngine(core.Config{}).Step(m, b).Speedup(rb)) + "x",
			f2(core.MustEngine(core.Config{DBA: true}).Step(m, b).Speedup(rb)) + "x",
			pv}
	}) {
		t.AddRow(row...)
	}
	t.Note("GCNII runs full-graph (batch column = 1); T5-large batch 16 OOMs on the paper's 32GB V100")
	return t
}

// TableV reproduces Table V: final model quality with and without
// TECO-Reduction, on the real fine-tuning proxy (accuracy and a
// perplexity-style metric).
// Every proxy pair and each of the two GNN trainings is a concurrent grid
// point against the shared run cache.
func TableV(opt Options) *Table {
	t := &Table{
		ID:     "table5",
		Title:  "Final model quality, original vs TECO-Reduction (real fine-tuning proxy)",
		Header: []string{"Proxy run", "Metric", "Original", "TECO-Reduction"},
	}
	// One proxy run per evaluated model (different seeds play the role of
	// the different fine-tuning tasks); the GNN rides as the last two
	// points — its base and TECO-Reduction trainings are independent, so
	// each is its own pool task rather than one back-to-back chain.
	names := []string{"GPT2", "Albert-xxlarge-v1", "Bert-large-cased", "T5-large"}
	type cell struct {
		rows   [][]string // a proxy pair's table rows
		gnnAcc string     // a GNN training's test accuracy
	}
	n := len(names)
	cells := grid(opt, n+2, func(i int) cell {
		if i >= n {
			// GCNII: real full-graph GNN training (paper reports 54.90
			// original, N/A for TECO-Reduction — we run both anyway).
			cfg := gnn.TrainConfig{Epochs: 200, Seed: opt.Seed}
			if i == n+1 {
				cfg.DBA, cfg.ActAfterSteps = true, 100
			}
			return cell{gnnAcc: pct(gnn.Train(cfg).TestAcc)}
		}
		s := opt.Seed + int64(i)*100
		base := runTrain(opt, realtrain.Config{Steps: RealTrainSteps, Seed: s})
		red := runTrain(opt, realtrain.Config{Steps: RealTrainSteps, Seed: s, DBA: true, ActAfterSteps: RealTrainSteps / 2})
		return cell{rows: [][]string{
			{names[i], "Accuracy", pct(base.FinalAcc), pct(red.FinalAcc)},
			{names[i], "Perplexity", f2(base.Perplexity), f2(red.Perplexity)},
		}}
	})
	for _, c := range cells[:n] {
		for _, row := range c.rows {
			t.AddRow(row...)
		}
	}
	t.AddRow("GCNII", "Accuracy", cells[n].gnnAcc, cells[n+1].gnnAcc)
	t.Note("paper Table V reports task-specific metrics (e.g. Bert 93.13 -> 91.99 accuracy, GCNII 54.90); the proxy reproduces the property that DBA costs at most a small quality delta")
	return t
}

// Fig10 reproduces Figure 10: training loss curves with and without
// TECO-Reduction.
// Both runs are concurrent grid points against the shared run cache.
func Fig10(opt Options) *Table {
	cfgs := []realtrain.Config{
		{Steps: RealTrainSteps, Seed: opt.Seed},
		{Steps: RealTrainSteps, Seed: opt.Seed, DBA: true, ActAfterSteps: RealTrainSteps / 4},
	}
	runs := grid(opt, len(cfgs), func(i int) realtrain.Result { return runTrain(opt, cfgs[i]) })
	base, red := runs[0], runs[1]
	t := &Table{
		ID:     "fig10",
		Title:  "Training loss curves (original vs TECO-Reduction)",
		Header: []string{"Step", "Original loss", "TECO-Reduction loss"},
	}
	bs, bl := base.LossCurve()
	_, rl := red.LossCurve()
	for i := range bs {
		if i >= len(rl) {
			break
		}
		t.AddRow(fmt.Sprint(bs[i]), f4(bl[i]), f4(rl[i]))
	}
	t.Note("curves follow the same trend and converge in the same number of steps (paper Fig 10)")
	return t
}

// Fig12 reproduces Figure 12: the time breakdown for T5-large across batch
// sizes and systems.
func Fig12(opt Options) *Table {
	t := &Table{
		ID:    "fig12",
		Title: "Time breakdown, T5-large (Fig 12)",
		Header: []string{"Batch", "System", "Fwd+Bwd", "Grad xfer (exposed)", "Clip",
			"ADAM", "Param xfer (exposed)", "Total"},
	}
	m := modelzoo.T5Large()
	engines := []struct {
		name string
		step func(modelzoo.Model, int) phases.StepResult
	}{
		{"ZeRO-Offload", func(m modelzoo.Model, b int) phases.StepResult { return zero.NewEngine().Step(m, b) }},
		{"TECO-CXL", func(m modelzoo.Model, b int) phases.StepResult { return core.MustEngine(core.Config{}).Step(m, b) }},
		{"TECO-Reduction", func(m modelzoo.Model, b int) phases.StepResult {
			return core.MustEngine(core.Config{DBA: true}).Step(m, b)
		}},
	}
	batches := []int{4, 8}
	for _, row := range grid(opt, len(batches)*len(engines), func(i int) []string {
		b := batches[i/len(engines)]
		e := engines[i%len(engines)]
		r := e.step(m, b)
		return []string{fmt.Sprint(b), e.name,
			ms((r.Fwd + r.Bwd).Milliseconds()),
			ms(r.Grad.Milliseconds()),
			ms(r.Clip.Milliseconds()),
			ms(r.Adam.Milliseconds()),
			ms(r.Prm.Milliseconds()),
			ms(r.Total().Milliseconds())}
	}) {
		t.AddRow(row...)
	}
	t.Note("paper: gradients fully hidden at batch 8; TECO-CXL cuts exposed parameter time (~76%% at batch 4); DBA hides it completely")
	return t
}

// CommVolume reproduces §VIII-C: per-direction communication volume and
// the exposed-communication reduction.
func CommVolume(opt Options) *Table {
	t := &Table{
		ID:    "volume",
		Title: "Communication volume and exposed-time reduction (batch 4)",
		Header: []string{"Model", "Param bytes (ZeRO)", "Param bytes (TECO-R)",
			"Grad bytes", "Comm-time reduction"},
	}
	gb := func(v int64) string { return f2(float64(v)/1e9) + "GB" }
	models := modelzoo.EvaluationModels()
	type cell struct {
		row  []string
		redn float64
	}
	cells := grid(opt, len(models), func(i int) cell {
		m := models[i]
		b := batchFor(m, 4)
		rb := zero.NewEngine().Step(m, b)
		rr := core.MustEngine(core.Config{DBA: true}).Step(m, b)
		redn := rr.CommReduction(rb)
		return cell{
			row:  []string{m.Name, gb(rb.ParamLinkBytes), gb(rr.ParamLinkBytes), gb(rr.GradLinkBytes), pct(redn)},
			redn: redn,
		}
	})
	var sum float64
	for _, c := range cells {
		sum += c.redn
		t.AddRow(c.row...)
	}
	t.Note("average exposed-communication reduction %.1f%% (paper: 93.7%% average, up to 100%%); DBA halves parameter volume, gradients are not DBA'd", 100*sum/float64(len(cells)))
	return t
}

// TableVI reproduces Table VI: TECO effectiveness across GPT-2 scales.
func TableVI(opt Options) *Table {
	t := &Table{
		ID:     "table6",
		Title:  "Impact of model size (GPT-2 scales, batch 4)",
		Header: []string{"Model", "ZeRO-Offload", "TECO-CXL", "TECO-Reduction", "Paper (CXL/Red)"},
	}
	paper := map[string]string{
		"GPT2": "1.55x/1.82x", "GPT2-Medium": "1.54x/1.64x",
		"GPT2-Large": "1.67x/1.79x", "GPT2-11B": "1.29x/1.41x",
	}
	models := modelzoo.SensitivityModels()
	for _, row := range grid(opt, len(models), func(i int) []string {
		m := models[i]
		rb := zero.NewEngine().Step(m, 4)
		return []string{m.Name, "1x",
			f2(core.MustEngine(core.Config{}).Step(m, 4).Speedup(rb)) + "x",
			f2(core.MustEngine(core.Config{DBA: true}).Step(m, 4).Speedup(rb)) + "x",
			paper[m.Name]}
	}) {
		t.AddRow(row...)
	}
	t.Note("the 11B configuration is compute-dominated (paper: computation is 63.4%% of total), so its speedup is the smallest")
	return t
}

// Fig13 reproduces Figure 13: model quality and speedup versus
// `act_aft_steps`.
// The activation-step sweep runs on the pool, its runs against the shared
// cache.
func Fig13(opt Options) *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "DBA activation step sweep (quality vs speedup, GPT-2 proxy)",
		Header: []string{"act_aft_steps", "Perplexity", "Accuracy", "Speedup vs ZeRO"},
	}
	m := modelzoo.GPT2()
	base := zero.NewEngine().Step(m, 4)
	cxlStep := core.MustEngine(core.Config{}).Step(m, 4).Total()
	dbaStep := core.MustEngine(core.Config{DBA: true}).Step(m, 4).Total()
	total := RealTrainSteps
	acts := []int{0, total / 8, total / 4, total / 2, 3 * total / 4, total}
	for _, row := range grid(opt, len(acts), func(i int) []string {
		act := acts[i]
		r := runTrain(opt, realtrain.Config{Steps: total, Seed: opt.Seed, DBA: true, ActAfterSteps: act})
		// Average step time: CXL-only before activation, DBA after.
		avg := (float64(float64(cxlStep)*float64(act)) + float64(float64(dbaStep)*float64(total-act))) / float64(total)
		sp := float64(base.Total()) / avg
		return []string{fmt.Sprint(act), f2(r.Perplexity), pct(r.FinalAcc), f2(sp) + "x"}
	}) {
		t.AddRow(row...)
	}
	t.Note("paper Fig 13: accuracy 22.50-21.21, speedup 1.63x-1.15x across activation points; act_aft_steps=500 strikes the balance")
	return t
}

// AblationDPU compares ZeRO-Offload with and without the one-step delayed
// parameter update, and TECO-Reduction against both — the §II-A argument
// that DPU only helps at large batches (where there is little left to hide)
// while TECO wins exactly where memory pressure forces small batches.
func AblationDPU(opt Options) *Table {
	t := &Table{
		ID:     "ablation-dpu",
		Title:  "DPU ablation (Bert-large-cased)",
		Header: []string{"Batch", "ZeRO-Offload", "ZeRO+DPU", "TECO-Reduction", "TECO vs DPU"},
	}
	m := modelzoo.BertLargeCased()
	batches := []int{4, 8, 16, 20}
	for _, row := range grid(opt, len(batches), func(i int) []string {
		b := batches[i]
		e := zero.NewEngine()
		plain := e.Step(m, b)
		dpu := e.StepDPU(m, b)
		teco := core.MustEngine(core.Config{DBA: true}).Step(m, b)
		return []string{fmt.Sprint(b),
			ms(plain.Total().Milliseconds()),
			ms(dpu.Total().Milliseconds()),
			ms(teco.Total().Milliseconds()),
			f2(float64(dpu.Total())/float64(teco.Total())) + "x"}
	}) {
		t.AddRow(row...)
	}
	t.Note("DPU hides the CPU chain only once GPU arithmetic intensity is high (paper §II-A); it also risks changing convergence, which TECO avoids")
	return t
}

// TableVII reproduces Table VII: ZeroQuant-style lossy compression vs
// TECO-Reduction on Bert-base / GLUE-MNLI.
func TableVII(Options) *Table {
	t := &Table{
		ID:     "table7",
		Title:  "Lossy compression (ZeroQuant-style) vs TECO-Reduction",
		Header: []string{"System", "Task", "Model", "Time (hours)", "Paper"},
	}
	row := compressbl.ZeroQuant(modelzoo.BertBaseUncased(), 32, compressbl.GLUEMNLISteps(32))
	t.AddRow("Zero-Quant", row.Task, row.Model, f2(row.ZeroQuantHours), "5.8")
	t.AddRow("TECO-Reduction", row.Task, row.Model, f2(row.TECOHours), "2.03")
	t.Note("measured slowdown %.2fx (paper: 2.87x): the quantized model needs a full-precision teacher forward every step", row.Slowdown)
	return t
}

// TableVIII reproduces Table VIII: the lossless LZ4 transfer pipeline.
// One compression pipeline per model runs on the sweep pool.
func TableVIII(opt Options) *Table {
	t := &Table{
		ID:     "table8",
		Title:  "Lossless compression (LZ4) pipeline, normalized to TECO-Reduction",
		Header: []string{"Model", "Compression ratio", "Paper ratio", "Normalized time", "Paper time"},
	}
	paperRatio := map[string]string{"GPT2": "5%", "Albert-xxlarge-v1": "0%", "Bert-large-cased": "0%", "T5-large": "36%"}
	paperTime := map[string]string{"GPT2": "4.51", "Albert-xxlarge-v1": "1.95", "Bert-large-cased": "3.03", "T5-large": "2.04"}
	models := []modelzoo.Model{modelzoo.GPT2(), modelzoo.AlbertXXLarge(), modelzoo.BertLargeCased(), modelzoo.T5Large()}
	for _, row := range grid(opt, len(models), func(i int) []string {
		m := models[i]
		r := compressbl.LosslessCompression(m, 4, opt.Seed)
		return []string{m.Name, pct(r.Ratio), paperRatio[m.Name], f2(r.Normalized), paperTime[m.Name]}
	}) {
		t.AddRow(row...)
	}
	t.Note("compression ratios measured with the from-scratch LZ4 on synthetic parameter snapshots; the pipeline is at least ~2x slower than TECO everywhere (paper's conclusion)")
	return t
}

// LAMMPS reproduces the §VII generality study on the Lennard-Jones melt.
func LAMMPS(Options) *Table {
	t := &Table{
		ID:     "lammps",
		Title:  "Generality: LAMMPS-style LJ melt with offloaded force kernel (4M atoms)",
		Header: []string{"Metric", "Measured", "Paper"},
	}
	r := md.Generality(4_000_000)
	t.AddRow("Baseline comm fraction", pct(r.CommFraction), "27%")
	t.AddRow("Total improvement", pct(r.Improvement), "21.5%")
	t.AddRow("CXL contribution", pct(r.CXLContribution), "78%")
	t.AddRow("DBA contribution", pct(r.DBAContribution), "22%")
	t.AddRow("Volume reduction (DBA)", pct(r.VolumeReduction), "17%")

	// Physics-level validation: the melt tolerates the dirty-byte path.
	exact := md.RunOffloaded(md.NewSystem(md.Config{Seed: 1}), 200, 0.004, 4)
	dba3 := md.RunOffloaded(md.NewSystem(md.Config{Seed: 1}), 200, 0.004, md.MDDirtyBytes)
	t.AddRow("Energy drift (exact transfers)", f4(exact), "-")
	t.AddRow("Energy drift (dirty-byte path)", f4(dba3), "-")
	t.Note("positions cross the link as fixed-binade scaled coordinates, making the 3-dirty-byte merge well-conditioned (see internal/md)")
	return t
}

// experiment is one registry row: a runnable id, the alternative ids that
// resolve to it, its generator, and whether "all" includes it.
type experiment struct {
	id      string
	aliases []string
	run     func(Options) []*Table
	inAll   bool
}

// one adapts a single-table generator to the registry's signature.
func one(gen func(Options) *Table) func(Options) []*Table {
	return func(opt Options) []*Table { return []*Table{gen(opt)} }
}

// registry is the one declaration of every experiment, in paper order: IDs,
// Canonical, ByID and All all read it.
var registry = []experiment{
	{id: "table1", run: one(TableI), inAll: true},
	{id: "fig2", aliases: []string{"fig2a", "fig2b"}, run: Fig2, inAll: true},
	{id: "ablation-inval", run: one(AblationInvalidation), inAll: true},
	{id: "fig11", aliases: []string{"table4"}, run: one(Fig11TableIV), inAll: true},
	{id: "table5", run: one(TableV), inAll: true},
	{id: "fig10", run: one(Fig10), inAll: true},
	{id: "fig12", run: one(Fig12), inAll: true},
	{id: "volume", run: one(CommVolume), inAll: true},
	{id: "table6", run: one(TableVI), inAll: true},
	{id: "fig13", run: one(Fig13), inAll: true},
	{id: "table7", run: one(TableVII), inAll: true},
	{id: "table8", run: one(TableVIII), inAll: true},
	{id: "lammps", run: one(LAMMPS), inAll: true},
	{id: "tune-act", run: one(TuneActAfterSteps)},
	{id: "ablation-dpu", run: one(AblationDPU)},
	{id: "time-to-loss", run: one(TimeToLoss)},
	{id: "linkspeed", run: one(LinkSpeedSweep)},
	{id: "faults", run: one(FaultSweep), inAll: true},
	{id: "recovery", run: one(RecoverySweep), inAll: true},
	{id: "fabric", run: one(FabricSweep), inAll: true},
	{id: "fabric-faults", run: one(FabricFaultSweep), inAll: true},
	{id: "layers", run: one(LayersSweep), inAll: true},
	{id: "layers-policy", run: one(LayersPolicySweep), inAll: true},
	{id: "tiering", run: one(TieringSweep), inAll: true},
	{id: "tiering-policy", run: one(TieringPolicySweep), inAll: true},
}

// allID is the pseudo-experiment that runs every inAll registry row.
const allID = "all"

// All runs every inAll experiment on the sweep pool: the generators
// themselves are the outer grid (inner grids share the same pool budget via
// goroutine scheduling), and the shared run cache collapses the duplicate
// fine-tuning runs across Fig 2, Fig 10, Table V and the fault/recovery
// sweeps. Table order is always paper order.
func All(opt Options) []*Table {
	var gens []func(Options) []*Table
	for _, e := range registry {
		if e.inAll {
			gens = append(gens, e.run)
		}
	}
	var out []*Table
	for _, tabs := range grid(opt, len(gens), func(i int) []*Table { return gens[i](opt) }) {
		out = append(out, tabs...)
	}
	return out
}

// lookup finds the registry row an id or alias names (nil: none).
func lookup(id string) *experiment {
	for i := range registry {
		if e := &registry[i]; e.id == id || slices.Contains(e.aliases, id) {
			return e
		}
	}
	return nil
}

// Canonical resolves an experiment id or alias (table4, fig2a, fig2b) to
// the id it runs and is cached under; ok is false for an unknown id.
func Canonical(id string) (canonical string, ok bool) {
	if id == allID {
		return allID, true
	}
	if e := lookup(id); e != nil {
		return e.id, true
	}
	return "", false
}

// ByID validates the options and runs a single experiment (or "all") by id
// or alias; Fig2 returns two tables.
func ByID(id string, opt Options) ([]*Table, error) {
	run := All
	if id != allID {
		e := lookup(id)
		if e == nil {
			return nil, fmt.Errorf("experiments: unknown id %q", id)
		}
		run = e.run
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return run(opt), nil
}

// IDs lists the runnable experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		ids = append(ids, e.id)
	}
	return append(ids, allID)
}
