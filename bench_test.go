package teco

// One benchmark per paper table/figure (regenerating its rows), plus
// microbenchmarks for the hardware components whose overhead §VIII-D
// analyzes. Run:
//
//	go test -bench=. -benchmem
//
// The Benchmark*Table/Figure benches print their rows once (on the first
// iteration) and then measure regeneration cost; the shapes printed are the
// reproduction artifact, the ns/op is incidental.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"teco/internal/cache"
	"teco/internal/compressbl"
	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/experiments"
	"teco/internal/gnn"
	"teco/internal/lz4"
	"teco/internal/md"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/realtrain"
	"teco/internal/sim"
	"teco/internal/zero"
)

var printOnce sync.Map

// printTables renders the tables to stdout exactly once per experiment id.
func printTables(b *testing.B, id string, tabs []*experiments.Table) {
	b.Helper()
	if _, dup := printOnce.LoadOrStore(id, true); dup {
		return
	}
	for _, t := range tabs {
		t.Render(os.Stdout)
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	tabs, err := experiments.ByID(id, experiments.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	printTables(b, id, tabs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ByID(id, experiments.Options{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (communication share vs batch size).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2 regenerates Figure 2 (value-changed-byte distributions)
// from a real fine-tuning run.
func BenchmarkFig2(b *testing.B) {
	tabs, err := experiments.ByID("fig2", experiments.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	printTables(b, "fig2", tabs[:0]) // rows are long; print only the notes below
	if _, dup := printOnce.LoadOrStore("fig2-notes", true); !dup {
		for _, t := range tabs {
			fmt.Printf("== %s: %s ==\n", t.ID, t.Title)
			for _, n := range t.Notes {
				fmt.Printf("note: %s\n", n)
			}
		}
		fmt.Println()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := realtrain.Run(realtrain.Config{Steps: 100, Seed: int64(i)})
		_, _ = r.AggregateDistributions()
	}
}

// BenchmarkAblationInvalidation regenerates the §IV-A2 on-demand-transfer
// penalty measurement.
func BenchmarkAblationInvalidation(b *testing.B) { benchExperiment(b, "ablation-inval") }

// BenchmarkFig11Table4 regenerates the headline speedup table.
func BenchmarkFig11Table4(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTable5Fig10 regenerates the accuracy table and loss curves.
func BenchmarkTable5Fig10(b *testing.B) {
	t5, err := experiments.ByID("table5", experiments.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	printTables(b, "table5", t5)
	f10, err := experiments.ByID("fig10", experiments.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if _, dup := printOnce.LoadOrStore("fig10-note", true); !dup {
		last := f10[0].Rows[len(f10[0].Rows)-1]
		fmt.Printf("== fig10: loss curves converge together (final: original %s vs TECO-Reduction %s) ==\n\n", last[1], last[2])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		realtrain.Run(realtrain.Config{Steps: 60, Seed: int64(i), DBA: true, ActAfterSteps: 20})
	}
}

// BenchmarkFig12 regenerates the T5-large time breakdown.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkCommVolume regenerates the §VIII-C communication-volume table.
func BenchmarkCommVolume(b *testing.B) { benchExperiment(b, "volume") }

// BenchmarkTable6 regenerates the GPT-2 scale sensitivity table.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig13 regenerates the act_aft_steps sweep.
func BenchmarkFig13(b *testing.B) {
	tabs, err := experiments.ByID("fig13", experiments.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	printTables(b, "fig13", tabs)
	m := modelzoo.GPT2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MustEngine(core.Config{DBA: true}).Step(m, 4)
	}
}

// BenchmarkTable7 regenerates the ZeroQuant comparison.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkTable8 regenerates the LZ4 lossless-compression comparison.
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkLAMMPS regenerates the §VII generality study.
func BenchmarkLAMMPS(b *testing.B) {
	tabs, err := experiments.ByID("lammps", experiments.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	printTables(b, "lammps", tabs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md.Generality(4_000_000)
	}
}

// ---------------------------------------------------------------------------
// Component microbenchmarks (§VIII-D overhead analysis and substrate costs).

// BenchmarkAggregator measures the software Aggregator on 64-byte lines
// (hardware: 1.28 ns/line; the Go model is functional, not cycle-accurate).
func BenchmarkAggregator(b *testing.B) {
	line := make([]byte, mem.LineSize)
	rand.New(rand.NewSource(1)).Read(line)
	b.SetBytes(mem.LineSize)
	for i := 0; i < b.N; i++ {
		_ = dba.Aggregate(line, 2)
	}
}

// BenchmarkDisaggregator measures the merge path (hardware: 1.126 ns/line).
func BenchmarkDisaggregator(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	old := make([]byte, mem.LineSize)
	rng.Read(old)
	payload := dba.Aggregate(old, 2)
	b.SetBytes(mem.LineSize)
	for i := 0; i < b.N; i++ {
		_ = dba.Disaggregate(old, payload, 2)
	}
}

// BenchmarkCXLPacketRoundTrip measures packet framing.
func BenchmarkCXLPacketRoundTrip(b *testing.B) {
	p := cxl.Packet{Addr: 42, Aggregated: true, DirtyBytes: 2, Payload: make([]byte, 32)}
	for i := 0; i < b.N; i++ {
		buf, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cxl.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkModel measures the timed-link fast path.
func BenchmarkLinkModel(b *testing.B) {
	link := cxl.NewLink(sim.New(), 0, 0)
	for i := 0; i < b.N; i++ {
		link.Send(sim.Time(i), mem.LineSize, 0)
	}
}

// BenchmarkCacheAccess measures the set-associative cache hot path.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Gem5L3())
	for i := 0; i < b.N; i++ {
		c.Access(mem.LineAddr(i%400000), i%3 == 0)
	}
}

// BenchmarkLZ4Compress measures compression throughput on parameter data
// (the Table VIII CPU-side cost).
func BenchmarkLZ4Compress(b *testing.B) {
	data := compressbl.ParamSnapshot(modelzoo.T5Large(), 3)
	b.SetBytes(int64(len(data)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = lz4.Compress(dst[:0], data)
	}
}

// BenchmarkLZ4Decompress measures decompression throughput (the GPU-side
// cost).
func BenchmarkLZ4Decompress(b *testing.B) {
	data := compressbl.ParamSnapshot(modelzoo.T5Large(), 3)
	comp := lz4.Compress(nil, data)
	b.SetBytes(int64(len(data)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = lz4.Decompress(dst[:0], comp, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZeroOffloadStep measures the baseline simulator itself.
func BenchmarkZeroOffloadStep(b *testing.B) {
	m := modelzoo.BertLargeCased()
	e := zero.NewEngine()
	for i := 0; i < b.N; i++ {
		e.Step(m, 4)
	}
}

// BenchmarkTECOStep measures the TECO simulator itself.
func BenchmarkTECOStep(b *testing.B) {
	m := modelzoo.BertLargeCased()
	e := core.MustEngine(core.Config{DBA: true})
	for i := 0; i < b.N; i++ {
		e.Step(m, 4)
	}
}

// BenchmarkMDForceKernel measures the real LJ force kernel.
func BenchmarkMDForceKernel(b *testing.B) {
	s := md.NewSystem(md.Config{CellsPerSide: 5, Seed: 1})
	b.SetBytes(int64(s.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForces(s.Pos)
	}
}

// BenchmarkFineTuneStep measures one real training step of the proxy model.
func BenchmarkFineTuneStep(b *testing.B) {
	// Steps scale with b.N through the config; measure per-step cost.
	r := realtrain.Run(realtrain.Config{Steps: 1, PreSteps: 1, Seed: 1})
	_ = r
	b.ResetTimer()
	realtrain.Run(realtrain.Config{Steps: b.N, PreSteps: 1, Seed: 1})
}

// BenchmarkGCNIIEpoch measures one full-graph GCNII training epoch (the
// real GNN workload behind the GCNII rows).
func BenchmarkGCNIIEpoch(b *testing.B) {
	g := gnn.NewGraph(gnn.GraphConfig{Seed: 1})
	m := gnn.NewGCNII(len(g.Features[0]), 64, g.Classes, 8, 2)
	grads := make([]float32, m.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LossAndGrad(m.Params, g, grads)
	}
}

// BenchmarkMDForceKernelLarge measures the serial kernel at a larger size
// for comparison with the parallel version.
func BenchmarkMDForceKernelLarge(b *testing.B) {
	s := md.NewSystem(md.Config{CellsPerSide: 10, Seed: 1})
	b.SetBytes(int64(s.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForces(s.Pos)
	}
}

// BenchmarkMDForceKernelParallel measures the worker-pool LJ kernel.
func BenchmarkMDForceKernelParallel(b *testing.B) {
	s := md.NewSystem(md.Config{CellsPerSide: 10, Seed: 1})
	b.SetBytes(int64(s.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForcesParallel(s.Pos, 0)
	}
}
