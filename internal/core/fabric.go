package core

import (
	"errors"
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/fabric"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
)

// FabricConfig configures the data-parallel switched-fabric step.
type FabricConfig struct {
	// Replicas is the data-parallel width: one accelerator (and one
	// switch port per direction) per replica, each computing batch/R.
	Replicas int
	// HostPorts sets the spine uplink count (Replicas/HostPorts is the
	// oversubscription ratio); 0 selects Replicas (non-blocking).
	HostPorts int
	// SparePorts adds idle ports per direction for failover.
	SparePorts int
	// HopLatency is the switch traversal latency per flow. Zero keeps a
	// one-replica fabric bit-identical to the point-to-point engine (the
	// conformance equality); experiments pass fabric.DefaultHopLatency.
	HopLatency sim.Time
	// KillPort, when 1..Replicas, kills that replica's ports (1-based,
	// both directions) after its backward pass, before its gradient
	// writeback — the mid-step accelerator-loss case. With a spare port
	// the step fails over; without one the replica is lost, its shard is
	// recomputed by the survivors, and the step completes degraded.
	KillPort int
}

// pointToPoint reports whether the config degenerates to one bare link per
// direction: one replica, no spares, no kill, zero hop, no extra uplinks.
func (fc FabricConfig) pointToPoint() bool {
	return fc.Replicas <= 1 && fc.SparePorts == 0 && fc.KillPort == 0 &&
		fc.HopLatency == 0 && fc.HostPorts <= 1
}

// StepFabric simulates one data-parallel training step over the switched
// fabric: every replica runs forward/backward on its batch shard and
// streams gradients up its own fabric port; the host clips and runs ADAM
// once; parameter writebacks stream down every live replica's port. It is
// Step's dataflow at width R, so one replica with no spares, no kill and
// zero hop latency is bit-identical to Step except for the Fabric block.
func (e *Engine) StepFabric(m modelzoo.Model, batch int, fc FabricConfig) (phases.StepResult, error) {
	R := fc.Replicas
	if R < 1 {
		return phases.StepResult{}, fmt.Errorf("core: fabric needs >= 1 replica, got %d", R)
	}
	if batch < R {
		return phases.StepResult{}, fmt.Errorf("core: batch %d smaller than %d replicas", batch, R)
	}
	if fc.KillPort < 0 || fc.KillPort > R {
		return phases.StepResult{}, fmt.Errorf("core: kill port %d outside 1..%d", fc.KillPort, R)
	}
	if e.Config.Invalidation {
		return phases.StepResult{}, fmt.Errorf("core: fabric mode runs the update protocol only")
	}
	return e.dataflow(m, batch, fc)
}

// transport carries one direction of the dataflow: a bare stream over one
// link (point-to-point) or a fabric.Switch. Only a switch can fail a send.
type transport struct {
	sw *fabric.Switch
	s  *cxl.Stream
}

// directionFaults derives one link direction's fault config: seed
// 2·seed+offset keeps the directions on independent but reproducible
// streams (a switch's port 0 keeps it, see fabric.PortFaultConfig).
func (e *Engine) directionFaults(offset int64) cxl.FaultConfig {
	fc := e.Config.Faults
	if fc.Enabled() {
		fc.Seed = 2*fc.Seed + offset
	}
	return fc
}

// pointToPoint builds a bare link and stream for one direction from a
// config NewEngine has already validated.
func (e *Engine) pointToPoint(eng *sim.Engine, seedOffset int64) transport {
	l := cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap)
	if fc := e.directionFaults(seedOffset); fc.Enabled() {
		if _, err := l.InjectFaults(fc); err != nil {
			panic(err)
		}
	}
	return transport{s: cxl.NewStream(l, e.Config.PerLine)}
}

// fabricSwitch builds one direction's switch.
func (e *Engine) fabricSwitch(fc FabricConfig, seedOffset int64) (*fabric.Switch, error) {
	return fabric.NewSwitch(fabric.SwitchConfig{
		Ports:      fc.Replicas,
		SparePorts: fc.SparePorts,
		HostPorts:  fc.HostPorts,
		Bandwidth:  e.LinkBandwidth,
		QueueCap:   e.QueueCap,
		PerLine:    e.Config.PerLine,
		HopLatency: fc.HopLatency,
		Faults:     e.directionFaults(seedOffset),
	})
}

// transports builds the gradient (up) and parameter (down) directions.
func (e *Engine) transports(fc FabricConfig) (up, down transport, err error) {
	if fc.pointToPoint() {
		eng := sim.New()
		return e.pointToPoint(eng, 1), e.pointToPoint(eng, 2), nil
	}
	if up.sw, err = e.fabricSwitch(fc, 1); err == nil {
		down.sw, err = e.fabricSwitch(fc, 2)
	}
	return up, down, err
}

func (t *transport) send(lp int, ready sim.Time, n int, lines int64, extra sim.Time, pktBytes int, aggregated bool) error {
	if t.sw != nil {
		_, err := t.sw.Send(lp, ready, n, lines, extra, pktBytes, aggregated)
		return err
	}
	t.s.PushRun(ready, n, lines, extra, pktBytes, aggregated)
	return nil
}

// fence is CXLFENCE over logical port lp's path, against both the actual
// and the fault-free drain.
func (t *transport) fence(lp int, ready sim.Time) (done, clean sim.Time) {
	if t.sw != nil {
		return t.sw.FencePort(lp, ready), t.sw.FenceCleanPort(lp, ready)
	}
	l := t.s.Link()
	return l.Fence(ready), l.FenceClean(ready)
}

// links counts the physical links (spares included); link returns one.
func (t *transport) links() int {
	if t.sw != nil {
		return t.sw.PhysPorts()
	}
	return 1
}

func (t *transport) link(i int) *cxl.Link {
	if t.sw != nil {
		return t.sw.Link(i)
	}
	return t.s.Link()
}

// stats is the switch accounting; a bare link is the degenerate one-port,
// zero-hop switch whose spine carried every payload byte unqueued.
func (t *transport) stats() fabric.SwitchStats {
	if t.sw != nil {
		return t.sw.Stats()
	}
	bytes, _, _, _ := t.s.Link().Stats()
	return fabric.SwitchStats{SpineBytes: bytes}
}

// check verifies the transport's invariants (a bare link checks its own on
// every flow).
func (t *transport) check() error {
	if t.sw != nil {
		return t.sw.CheckInvariants()
	}
	return t.s.CheckInvariants()
}

// split is shard i of b items over n holders: contiguous, remainder to the
// low ids.
func split(b, n, i int) int {
	if i < b%n {
		return b/n + 1
	}
	return b / n
}

// dataflow is the TECO dataflow of Fig 6 over R data-parallel replicas:
// each replica's gradients stream up its port as backward writes them back
// ((3)); after one CXLFENCE over every live port the host clips and runs
// ADAM once, and the updated parameter lines stream down every live port as
// the vectorized pass writes them back ((1)/(2)), closed by one more
// CXLFENCE — no double buffer, no explicit transfer calls. A zero
// FabricConfig is Step: one replica on the point-to-point transport and a
// zero Fabric block.
func (e *Engine) dataflow(m modelzoo.Model, batch int, fc FabricConfig) (phases.StepResult, error) {
	// Graceful degradation: when aggregated payloads cost more expected
	// link time than full lines at this error rate, run the step with DBA
	// switched off. The variant label stays TECO-Reduction: degradation is
	// a per-step policy decision, not a reconfig.
	useDBA := e.Config.DBA
	degraded := useDBA && e.Config.Degrade &&
		AggregatedUneconomical(e.Config.Faults, e.Config.DirtyBytes, e.LinkBandwidth)
	if degraded {
		useDBA = false
	}
	up, down, err := e.transports(fc)
	if err != nil {
		return phases.StepResult{}, err
	}
	R := max(fc.Replicas, 1)

	// Gradients: cache-line-granular update pushes track backward layer by
	// layer (no buffer-fill delay — the fine-grained win). Gradients never
	// aggregate, so the wire packet is a full line.
	fullWire := cxl.WirePacketBytes(0)
	var gradBytes int64
	backward := func(r, b int, start sim.Time) (fwd, end sim.Time, err error) {
		fwd = e.GPU.ForwardTime(m, b)
		for _, ch := range e.GPU.GradientSchedule(m, b) {
			if err = up.send(r, start+fwd+ch.ReadyAt, int(ch.Bytes), mem.LinesIn(ch.Bytes), 0, fullWire, false); err != nil {
				return fwd, 0, err
			}
			gradBytes += ch.Bytes
		}
		return fwd, start + fwd + e.GPU.BackwardTime(m, b), nil
	}

	// Scheduled chaos: the replica's ports die after its backward pass,
	// before the gradient writeback.
	if kill := fc.KillPort - 1; kill >= 0 {
		if err := up.sw.KillPort(kill); err != nil {
			return phases.StepResult{}, err
		}
		if err := down.sw.KillPort(kill); err != nil {
			return phases.StepResult{}, err
		}
	}
	type replica struct {
		shard       int
		alive       bool
		fwd, bwdEnd sim.Time
	}
	reps := make([]replica, R)
	lost := -1
	var detectAt sim.Time
	for r := range reps {
		rp := &reps[r]
		rp.shard = split(batch, R, r)
		fwd, end, err := backward(r, rp.shard, 0)
		rp.fwd, rp.bwdEnd, rp.alive = fwd, end, err == nil
		if err != nil {
			var pde *fabric.PortDownError
			if !errors.As(err, &pde) {
				return phases.StepResult{}, err
			}
			// Link-down detection: the failed writeback surfaces at pde.At,
			// after the timeout and failover probes.
			lost = r
			detectAt = max(detectAt, pde.At)
		}
	}
	redistributed := int64(0)
	if lost >= 0 {
		// Graceful degradation: the survivors re-run the lost shard after
		// detection, splitting it evenly, and stream the recomputed
		// gradients up their own (live) ports.
		var survivors []int
		for r := range reps {
			if reps[r].alive {
				survivors = append(survivors, r)
			}
		}
		if len(survivors) == 0 {
			return phases.StepResult{}, fmt.Errorf("core: all replicas lost (no spare port)")
		}
		for i, r := range survivors {
			b := split(reps[lost].shard, len(survivors), i)
			if b == 0 {
				continue
			}
			redistributed++
			_, end, err := backward(r, b, max(reps[r].bwdEnd, detectAt))
			if err != nil {
				return phases.StepResult{}, err
			}
			reps[r].bwdEnd = end
		}
	}

	// Global gradient barrier: CXLFENCE after the last gradient writeback
	// over every live port (Fig 6: "after the buffer is full, CXLFENCE()
	// must be called").
	var fwdMax, bwdMax, gradDone, gradClean sim.Time
	for r, rp := range reps {
		if rp.alive {
			fwdMax = max(fwdMax, rp.fwd)
			bwdMax = max(bwdMax, rp.bwdEnd)
			done, clean := up.fence(r, rp.bwdEnd)
			gradDone, gradClean = max(gradDone, done), max(gradClean, clean)
		}
	}
	clip := e.CPU.ClipTime(m.Params)
	clipEnd := gradDone + clip
	adam := e.CPU.AdamTime(m.Params)
	adamEnd := clipEnd + adam

	// Parameters: ADAM's cache-line writebacks stream over the update
	// protocol while the pass runs; one CXLFENCE per port after all
	// parameters are updated (Listing 1: inside optimizer.step()).
	perLine := e.perLinePayload(useDBA)
	paramWire := fullWire
	var extra sim.Time
	if useDBA {
		// Aggregator logic delay, amortized by pipelining: the paper
		// charges 1 ns end-to-end per in-flight group (§VIII-D).
		extra = dba.ModelledLatency
		paramWire = cxl.WirePacketBytes(e.Config.DirtyBytes)
	}
	sched := e.CPU.UpdateSchedule(m)
	var paramBytes int64
	live := 0
	paramDone, prmClean := adamEnd, adamEnd
	for r, rp := range reps {
		if !rp.alive {
			continue
		}
		for _, ch := range sched {
			payload := ch.Bytes * int64(perLine) / mem.LineSize
			if err := down.send(r, clipEnd+ch.ReadyAt, int(payload), mem.LinesIn(ch.Bytes), extra, paramWire, useDBA); err != nil {
				return phases.StepResult{}, fmt.Errorf("core: replica %d unreachable for parameter writeback: %w", r, err)
			}
		}
		paramBytes += e.paramLinkBytes(m, useDBA)
		live++
		done, clean := down.fence(r, adamEnd)
		paramDone, prmClean = max(paramDone, done), max(prmClean, clean)
	}

	res := phases.StepResult{
		Variant: e.Config.Variant(),
		Breakdown: phases.Breakdown{
			Fwd:  fwdMax,
			Bwd:  bwdMax - fwdMax,
			Grad: gradDone - bwdMax,
			Clip: clip,
			Adam: adam,
			Prm:  paramDone - adamEnd,
		},
		ParamLinkBytes: paramBytes,
		GradLinkBytes:  gradBytes,
	}
	if fc.Replicas > 0 {
		us, ds := up.stats(), down.stats()
		res.Fabric = phases.FabricStats{
			Replicas:        int64(R),
			HostPorts:       int64(fc.HostPorts),
			PortsDown:       us.PortsDown + ds.PortsDown,
			Failovers:       us.Failovers + ds.Failovers,
			FailoverRetries: us.FailoverRetries + ds.FailoverRetries,
			SpineBytes:      us.SpineBytes + ds.SpineBytes,
			SpineQueued:     us.SpineQueued + ds.SpineQueued,
			LostReplicas:    int64(R - live),
			Redistributed:   redistributed,
			Degraded:        lost >= 0,
		}
		if fc.HostPorts == 0 {
			res.Fabric.HostPorts = int64(R)
		}
	}
	e.foldFaults(&res, (gradDone-gradClean)+(paramDone-prmClean), &up, &down)
	res.Fault.Degraded = degraded
	if check.Enabled() {
		check.Check(res.Check, up.check, down.check)
	}
	return res, nil
}
