package fabric

import (
	"errors"
	"strings"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/sim"
)

// pushes is a deterministic flow schedule shared by the equality tests.
type push struct {
	ready sim.Time
	n     int
}

func schedule() []push {
	var ps []push
	for i := 0; i < 24; i++ {
		ps = append(ps, push{
			ready: sim.Time(i) * 3 * sim.Microsecond / 2,
			n:     4096 + 128*i,
		})
	}
	return ps
}

// The degenerate anchor: a one-port, zero-hop, non-blocking switch is
// bit-identical to a bare cxl link — Done, fences and fault draws all
// replay exactly. This is what lets StepFabric claim equality with Step.
func TestSwitchDegeneratesToBareLink(t *testing.T) {
	check.Enable(t)
	// degrade is a port trained down to 70% of the CXL bandwidth.
	configs := map[string]struct {
		fc        cxl.FaultConfig
		bandwidth float64
	}{
		"clean":   {},
		"ber":     {fc: cxl.FaultConfig{Seed: 7, BER: 1e-6}},
		"degrade": {bandwidth: 0.7 * cxl.EffectiveBandwidth()},
		"mixed":   {fc: cxl.FaultConfig{Seed: 7, BER: 5e-7, RetryBudget: 2}, bandwidth: 0.9 * cxl.EffectiveBandwidth()},
	}
	for name, c := range configs {
		fc := c.fc
		t.Run(name, func(t *testing.T) {
			sw, err := NewSwitch(SwitchConfig{Ports: 1, Faults: fc, Bandwidth: c.bandwidth})
			if err != nil {
				t.Fatal(err)
			}
			link := cxl.NewLink(nil, c.bandwidth, 0)
			if fc.Enabled() {
				if _, err := link.InjectFaults(fc); err != nil {
					t.Fatal(err)
				}
			}
			for i, p := range schedule() {
				want := link.SendFlow(p.ready, p.n, 0, cxl.WirePacketBytes(0), false)
				got, err := sw.Send(0, p.ready, p.n, 0, cxl.WirePacketBytes(0), false)
				if err != nil {
					t.Fatal(err)
				}
				if got.Done != want.Done {
					t.Fatalf("flow %d: switch Done %v, bare link %v", i, got.Done, want.Done)
				}
			}
			at := 40 * sim.Microsecond
			if got, want := sw.FencePort(0, at), link.Fence(at); got != want {
				t.Fatalf("fence: switch %v, bare link %v", got, want)
			}
			if fc.Enabled() {
				if got, want := sw.FenceCleanPort(0, at), link.FenceClean(at); got != want {
					t.Fatalf("clean fence: switch %v, bare link %v", got, want)
				}
				a, b := sw.ports[0].link.FaultStats(), link.FaultStats()
				if a != b {
					t.Fatalf("fault draws diverged: switch %+v, bare link %+v", a, b)
				}
			}
		})
	}
}

// Oversubscription: with fewer host uplinks than ports, concurrent flows
// queue on the spine; a non-blocking switch passes the same flows with zero
// spine queueing and a strictly earlier (or equal) drain.
func TestSwitchOversubscriptionQueues(t *testing.T) {
	check.Enable(t)
	run := func(hostPorts int) (sim.Time, SwitchStats) {
		sw, err := NewSwitch(SwitchConfig{Ports: 4, HostPorts: hostPorts})
		if err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for i := 0; i < 12; i++ {
			for p := 0; p < 4; p++ {
				// Stagger the ports so spine arrivals are 200 ns apart:
				// longer than one non-blocking spine service (~136 ns for
				// 8 KiB at 4x port bandwidth), shorter than a 4:1
				// oversubscribed one (~543 ns) — so only the oversubscribed
				// spine queues.
				ready := sim.Time(i)*sim.Microsecond + sim.Time(p)*200*sim.Nanosecond
				res, err := sw.Send(p, ready, 8192, 0, cxl.WirePacketBytes(0), false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Done > last {
					last = res.Done
				}
			}
		}
		return last, sw.Stats()
	}
	fullDrain, full := run(4)
	overDrain, over := run(1)
	if full.SpineQueued != 0 {
		t.Fatalf("non-blocking switch queued %v on the spine", full.SpineQueued)
	}
	if over.SpineQueued <= 0 {
		t.Fatal("4:1 oversubscribed switch never queued")
	}
	if overDrain <= fullDrain {
		t.Fatalf("oversubscribed drain %v not later than non-blocking %v", overDrain, fullDrain)
	}
	if full.Bytes != over.Bytes || full.SpineBytes != full.Bytes {
		t.Fatalf("conservation: %+v vs %+v", full, over)
	}
}

// Hop latency shifts an uncontended flow by exactly the configured hop.
func TestSwitchHopLatency(t *testing.T) {
	zero, err := NewSwitch(SwitchConfig{Ports: 1})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := NewSwitch(SwitchConfig{Ports: 1, HopLatency: DefaultHopLatency})
	if err != nil {
		t.Fatal(err)
	}
	a, err := zero.Send(0, 0, 4096, 0, cxl.WirePacketBytes(0), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hop.Send(0, 0, 4096, 0, cxl.WirePacketBytes(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Done-a.Done != DefaultHopLatency {
		t.Fatalf("hop added %v, want %v", b.Done-a.Done, DefaultHopLatency)
	}
}

// A killed port with a spare fails over: the first send pays detection and
// backoff, traffic continues, and the failover is counted. Without a spare
// the send fails with PortDownError carrying the give-up time.
func TestSwitchFailover(t *testing.T) {
	check.Enable(t)
	sw, err := NewSwitch(SwitchConfig{Ports: 2, SparePorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.KillPort(0); err != nil {
		t.Fatal(err)
	}
	if sw.ports[sw.route[0]].up {
		t.Fatal("killed port still up")
	}
	res, err := sw.Send(0, 0, 4096, 0, cxl.WirePacketBytes(0), false)
	if err != nil {
		t.Fatalf("send with a spare available: %v", err)
	}
	if res.Done < DefaultLinkDownTimeout {
		t.Fatalf("failed-over send finished at %v, before the detection timeout %v", res.Done, DefaultLinkDownTimeout)
	}
	if !sw.ports[sw.route[0]].up {
		t.Fatal("port 0 has no live route after failover")
	}
	st := sw.Stats()
	if st.PortsDown != 1 || st.Failovers != 1 {
		t.Fatalf("stats after failover: %+v", st)
	}
	// Port 1 is untouched.
	if _, err := sw.Send(1, 0, 4096, 0, cxl.WirePacketBytes(0), false); err != nil {
		t.Fatal(err)
	}

	// Exhaust: kill the spare (now routing port 0) too; port 0's next send
	// must give up.
	if err := sw.KillPort(0); err != nil {
		t.Fatal(err)
	}
	_, err = sw.Send(0, 0, 4096, 0, cxl.WirePacketBytes(0), false)
	var pde *PortDownError
	if !errors.As(err, &pde) {
		t.Fatalf("want PortDownError, got %v", err)
	}
	if pde.Port != 0 || pde.At <= DefaultLinkDownTimeout {
		t.Fatalf("give-up error %+v lacks detection time", pde)
	}
	if sw.Stats().FailedSends != 1 {
		t.Fatalf("failed send not counted: %+v", sw.Stats())
	}
	if err := sw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Failover give-up times are seeded: two switches with the same config give
// up at the same simulated time, a third with a different seed (almost
// surely) at a different one.
func TestSwitchFailoverBackoffSeeded(t *testing.T) {
	giveUp := func(seed int64) sim.Time {
		sw, err := NewSwitch(SwitchConfig{Ports: 1, Faults: cxl.FaultConfig{Seed: seed, BER: 1e-9}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.KillPort(0); err != nil {
			t.Fatal(err)
		}
		_, err = sw.Send(0, 0, 64, 0, cxl.WirePacketBytes(0), false)
		var pde *PortDownError
		if !errors.As(err, &pde) {
			t.Fatalf("want PortDownError, got %v", err)
		}
		return pde.At
	}
	if a, b := giveUp(3), giveUp(3); a != b {
		t.Fatalf("same seed gave up at %v and %v", a, b)
	}
	if a, b := giveUp(3), giveUp(4); a == b {
		t.Fatalf("different seeds both gave up at %v", a)
	}
}

func TestPortDownError(t *testing.T) {
	err := error(&PortDownError{Port: 2, At: 12345})
	if !strings.Contains(err.Error(), "port 2") {
		t.Fatalf("unhelpful error: %v", err)
	}
	var pde *PortDownError
	if !errors.As(err, &pde) || pde.Port != 2 {
		t.Fatal("errors.As failed to recover the port")
	}
}

func TestSwitchConfigValidation(t *testing.T) {
	for _, cfg := range []SwitchConfig{
		{Ports: 0},
		{Ports: 2, SparePorts: -1},
		{Ports: 2, HostPorts: -2},
		{Ports: 2, Faults: cxl.FaultConfig{BER: -1}},
	} {
		if _, err := NewSwitch(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if err := (&Switch{cfg: SwitchConfig{Ports: 1}, route: []int{0}}).KillPort(5); err == nil {
		t.Fatal("kill of unknown port accepted")
	}
}
