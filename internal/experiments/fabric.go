package experiments

import (
	"fmt"

	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/fabric"
	"teco/internal/modelzoo"
)

// fabricReplicaGrid returns the swept data-parallel widths; an explicit
// Options.Replicas collapses the axis to that width.
func fabricReplicaGrid(opt Options) []int {
	if opt.Replicas > 0 {
		return []int{opt.Replicas}
	}
	return []int{1, 2, 4, 8}
}

// FabricSweep is the switched-fabric scaling grid: data-parallel width x
// spine oversubscription (Bert-large-cased, batch 16, TECO-Reduction, one
// switch hop). Per cell: the step breakdown, the spine queueing cost, and
// the speedup over one replica at the same oversubscription.
func FabricSweep(opt Options) *Table {
	t := &Table{
		ID:    "fabric",
		Title: "Switched-fabric scaling: replicas x spine oversubscription (Bert-large-cased, batch 16)",
		Header: []string{"Replicas", "Host ports", "Oversub", "Fwd+Bwd", "Grad", "Prm",
			"Spine queued", "Total", "Speedup"},
	}
	m := modelzoo.BertLargeCased()
	oversubs := []int{1, 2, 4}
	if opt.HostPorts > 0 {
		oversubs = []int{0} // sentinel: explicit host-port count
	}
	// Low replica counts collapse distinct oversubscription ratios onto the
	// same host-port count; keep each realizable (replicas, ports) shape once.
	type cell struct {
		r, hostPorts int
		label        string
	}
	var cells []cell
	seen := map[[2]int]bool{}
	for _, r := range fabricReplicaGrid(opt) {
		for _, over := range oversubs {
			hostPorts := opt.HostPorts
			label := "explicit"
			if over > 0 {
				hostPorts = r / over
				if hostPorts < 1 {
					hostPorts = 1
				}
				label = fmt.Sprintf("%d:1", (r+hostPorts-1)/hostPorts)
			}
			if seen[[2]int{r, hostPorts}] {
				continue
			}
			seen[[2]int{r, hostPorts}] = true
			cells = append(cells, cell{r, hostPorts, label})
		}
	}
	rows := grid(opt, len(cells), func(i int) []string {
		r, hostPorts, label := cells[i].r, cells[i].hostPorts, cells[i].label
		e := core.MustEngine(core.Config{DBA: true})
		base, err := e.StepFabric(m, 16, fabricCfg(1, 1, 0))
		if err != nil {
			return []string{fmt.Sprint(r), fmt.Sprint(hostPorts), label, "-", "-", "-", "-", "-", err.Error()}
		}
		res, err := e.StepFabric(m, 16, fabricCfg(r, hostPorts, 0))
		if err != nil {
			return []string{fmt.Sprint(r), fmt.Sprint(hostPorts), label, "-", "-", "-", "-", "-", err.Error()}
		}
		return []string{
			fmt.Sprint(r), fmt.Sprint(hostPorts), label,
			ms((res.Fwd + res.Bwd).Milliseconds()),
			ms(res.Grad.Milliseconds()),
			ms(res.Prm.Milliseconds()),
			ms(res.Fabric.SpineQueued.Milliseconds()),
			ms(res.Total().Milliseconds()),
			f2(float64(base.Total())/float64(res.Total())) + "x",
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("per-replica batch shrinks with width; the spine serializes gradient and parameter streams, so oversubscription taxes exactly the communication phases")
	return t
}

// fabricCfg is the sweep's switch shape: one hop of latency, no spares.
func fabricCfg(replicas, hostPorts, killPort int) core.FabricConfig {
	return core.FabricConfig{
		Replicas:   replicas,
		HostPorts:  hostPorts,
		HopLatency: fabric.DefaultHopLatency,
		KillPort:   killPort,
	}
}

// fabricFaultBERs returns the per-port BER axis of the fault sweep.
func fabricFaultBERs(opt Options) []float64 {
	if opt.BER > 0 {
		return []float64{0, opt.BER}
	}
	return []float64{0, 1e-7, 1e-5}
}

// fabricFaultWidth is the fault sweep's data-parallel width (default 4);
// Options.Validate bounds KillPort by it.
func fabricFaultWidth(opt Options) int {
	if opt.Replicas > 0 {
		return opt.Replicas
	}
	return 4
}

// FabricFaultSweep is the per-port fault grid for the switched fabric:
// per-port BER x failure scenario (healthy, port killed with a spare
// available, port killed with no spare). Per cell: failovers, lost
// replicas, redistributed shards, the fault-exposed time and the step-time
// inflation over the healthy fabric.
func FabricFaultSweep(opt Options) *Table {
	replicas := fabricFaultWidth(opt)
	t := &Table{
		ID: "fabric-faults",
		Title: fmt.Sprintf("Switched-fabric fault sweep: per-port BER x port failure "+
			"(Bert-large-cased, batch 16, %d replicas)", replicas),
		Header: []string{"BER", "Scenario", "Failovers", "Lost", "Redistributed",
			"Exposed", "Total", "vs healthy"},
	}
	m := modelzoo.BertLargeCased()
	bers := fabricFaultBERs(opt)
	kill := replicas // default chaos target: the last replica's port
	if opt.KillPort > 0 {
		kill = opt.KillPort
	}
	type scenario struct {
		name   string
		spares int
		kill   int
	}
	scenarios := []scenario{
		{"healthy", 0, 0},
		{"kill+spare", 1, kill},
		{"kill", 0, kill},
	}
	rows := grid(opt, len(bers)*len(scenarios), func(i int) []string {
		ber := bers[i/len(scenarios)]
		sc := scenarios[i%len(scenarios)]
		cfg := core.Config{DBA: true}
		if ber > 0 {
			cfg.Faults = cxl.FaultConfig{Seed: opt.Seed, BER: ber, RetryBudget: opt.RetryBudget}
		}
		cfg.Degrade = opt.Degrade
		e := core.MustEngine(cfg)
		healthy, err := e.StepFabric(m, 16, core.FabricConfig{
			Replicas: replicas, HopLatency: fabric.DefaultHopLatency,
		})
		if err != nil {
			return []string{fmtBER(ber), sc.name, "-", "-", "-", "-", "-", err.Error()}
		}
		fc := core.FabricConfig{
			Replicas:   replicas,
			SparePorts: sc.spares,
			HopLatency: fabric.DefaultHopLatency,
			KillPort:   sc.kill,
		}
		res, err := e.StepFabric(m, 16, fc)
		if err != nil {
			return []string{fmtBER(ber), sc.name, "-", "-", "-", "-", "-", err.Error()}
		}
		return []string{
			fmtBER(ber), sc.name,
			fmt.Sprint(res.Fabric.Failovers),
			fmt.Sprint(res.Fabric.LostReplicas),
			fmt.Sprint(res.Fabric.Redistributed),
			ms(res.Fault.Exposed.Milliseconds()),
			ms(res.Total().Milliseconds()),
			f2(float64(res.Total())/float64(healthy.Total())) + "x",
		}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Note("a killed port with a spare costs one link-down detection and failover per direction; without one the replica is lost and its shard recomputes on the survivors")
	return t
}

// fmtBER prints an error rate in the sweep's scientific shorthand.
func fmtBER(ber float64) string {
	if ber == 0 {
		return "0"
	}
	return fmt.Sprintf("%.0e", ber)
}
