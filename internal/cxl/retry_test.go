package cxl

import (
	"testing"

	"teco/internal/mem"
	"teco/internal/sim"
)

// sendPattern drives a fixed flow schedule and returns the final
// completion time plus the link's stats.
func sendPattern(l *Link) (last sim.Time, results []FlowResult) {
	for i := 0; i < 200; i++ {
		r := l.SendFlow(sim.Time(i)*10*sim.Nanosecond, 4096, 0, WirePacketBytes(0), false)
		results = append(results, r)
		last = r.Done
	}
	return last, results
}

func mustInjectT(t *testing.T, l *Link, cfg FaultConfig) {
	t.Helper()
	if _, err := l.InjectFaults(cfg); err != nil {
		t.Fatalf("InjectFaults(%+v): %v", cfg, err)
	}
}

func TestZeroFaultConfigBitIdentical(t *testing.T) {
	// A zero-BER fault config must leave every timing and byte counter
	// bit-identical to a pristine link (fault path strictly additive).
	clean := NewLink(nil, 0, 0)
	faulty := NewLink(nil, 0, 0)
	if fm, err := faulty.InjectFaults(FaultConfig{Seed: 1}); fm != nil || err != nil {
		t.Fatal("disabled fault config must not attach a model")
	}
	cd, _ := sendPattern(clean)
	fd, _ := sendPattern(faulty)
	if cd != fd {
		t.Fatalf("completion diverged: %v vs %v", cd, fd)
	}
	cb, cp, cbusy, cstall := clean.Stats()
	fb, fp, fbusy, fstall := faulty.Stats()
	if cb != fb || cp != fp || cbusy != fbusy || cstall != fstall {
		t.Fatal("byte/packet/stall accounting diverged under zero-fault config")
	}
	if faulty.FaultStats() != (LinkFaultStats{}) {
		t.Fatal("zero-fault config produced fault stats")
	}
}

func TestDeterministicInjection(t *testing.T) {
	// Same seed + config => identical retry counts and timings.
	cfg := FaultConfig{Seed: 77, BER: 2e-5}
	a := NewLink(nil, 0, 0)
	b := NewLink(nil, 0, 0)
	mustInjectT(t, a, cfg)
	mustInjectT(t, b, cfg)
	da, ra := sendPattern(a)
	db, rb := sendPattern(b)
	if da != db {
		t.Fatalf("timings diverged: %v vs %v", da, db)
	}
	if a.FaultStats() != b.FaultStats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.FaultStats(), b.FaultStats())
	}
	if a.FaultStats().Retries == 0 {
		t.Fatal("expected some retries at BER 2e-5")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("flow %d diverged: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	// A different seed draws a different error pattern.
	c := NewLink(nil, 0, 0)
	mustInjectT(t, c, FaultConfig{Seed: 78, BER: 2e-5})
	sendPattern(c)
	if c.FaultStats() == a.FaultStats() {
		t.Fatal("different seeds produced identical fault streams (suspicious)")
	}
}

func TestRetryDelaysCompletionAndCountsReplay(t *testing.T) {
	clean := NewLink(nil, 0, 0)
	faulty := NewLink(nil, 0, 0)
	mustInjectT(t, faulty, FaultConfig{Seed: 3, BER: 1e-4})
	cd, _ := sendPattern(clean)
	fd, _ := sendPattern(faulty)
	if fd <= cd {
		t.Fatalf("faulty link finished at %v, clean at %v: retries added no latency", fd, cd)
	}
	st := faulty.FaultStats()
	if st.Retries == 0 || st.ReplayedBytes == 0 || st.RetryTime == 0 {
		t.Fatalf("missing retry accounting: %+v", st)
	}
	// Payload byte accounting stays the offered load; replayed bytes are
	// tracked separately.
	cb, _, _, _ := clean.Stats()
	fb, _, _, _ := faulty.Stats()
	if cb != fb {
		t.Fatalf("payload accounting changed under faults: %d vs %d", cb, fb)
	}
}

func TestRetryLatencyGrowsWithBER(t *testing.T) {
	var prev sim.Time
	for _, ber := range []float64{1e-6, 1e-5, 1e-4} {
		l := NewLink(nil, 0, 0)
		mustInjectT(t, l, FaultConfig{Seed: 9, BER: ber})
		sendPattern(l)
		rt := l.FaultStats().RetryTime
		if rt < prev {
			t.Fatalf("retry time shrank as BER grew: %v at BER %g (prev %v)", rt, ber, prev)
		}
		prev = rt
	}
	if prev == 0 {
		t.Fatal("no retry time accumulated at BER 1e-4")
	}
}

func TestExhaustedBudgetPoisons(t *testing.T) {
	// With a certain-corruption model and budget 2, every flow's packets
	// end up poisoned after exactly 2 retransmit rounds.
	l := NewLink(nil, 0, 0)
	mustInjectT(t, l, FaultConfig{Seed: 5, BER: 0.5, RetryBudget: 2})
	r := l.SendFlow(0, 8*mem.LineSize, 0, WirePacketBytes(0), false)
	if r.Poisoned == 0 {
		t.Fatalf("no poison with saturating BER: %+v", r)
	}
	if r.Retries != 2*r.Packets {
		t.Fatalf("retries = %d, want 2 rounds x %d packets", r.Retries, r.Packets)
	}
	if st := l.FaultStats(); st.Poisoned != r.Poisoned {
		t.Fatalf("link poison counter %d != flow %d", st.Poisoned, r.Poisoned)
	}
}

func TestAggregatedRetryPaysMergePenalty(t *testing.T) {
	// Same corrupted-packet schedule, but the aggregated flow pays the
	// merge-header round trip per retried packet.
	mk := func(aggregated bool, pkt int) sim.Time {
		l := NewLink(nil, 0, 0)
		mustInjectT(t, l, FaultConfig{Seed: 4, BER: 0.02, RetryBudget: 50})
		r := l.SendFlow(0, 64*1024, 0, pkt, aggregated)
		return r.Done - r.CleanDone
	}
	full := mk(false, WirePacketBytes(0))
	agg := mk(true, WirePacketBytes(0)) // identical framing: isolate the merge penalty
	if agg <= full {
		t.Fatalf("aggregated retry delay %v <= full-line %v: merge round trip not charged", agg, full)
	}
}

// TestBackPressureMonotonicUnderDegradedBandwidth asserts the pending-queue
// accounting stays consistent as the link trains down: the same offered
// load must see monotonically growing producer stall as bytesPerSecond
// drops.
func TestBackPressureMonotonicUnderDegradedBandwidth(t *testing.T) {
	stallAt := func(bps float64) sim.Time {
		l := NewLink(nil, bps, 4)
		for i := 0; i < 64; i++ {
			l.SendFlow(0, mem.LineSize, 0, 0, false) // all ready at t=0: queue saturates
		}
		_, _, _, stall := l.Stats()
		return stall
	}
	var prev sim.Time = -1
	for _, bps := range []float64{16e9, 8e9, 4e9, 2e9, 1e9} {
		s := stallAt(bps)
		if s <= prev {
			t.Fatalf("stall %v at %g B/s did not grow (prev %v)", s, bps, prev)
		}
		prev = s
	}
}

func TestPacketErrorProbShape(t *testing.T) {
	fm := MustFaultModel(FaultConfig{Seed: 1, BER: 1e-6})
	small := fm.PacketErrorProb(int64(WirePacketBytes(2)))
	large := fm.PacketErrorProb(int64(WirePacketBytes(0)))
	if small <= 0 || large <= small {
		t.Fatalf("packet error prob not increasing in size: %g vs %g", small, large)
	}
	if p := fm.PacketErrorProb(0); p != 0 {
		t.Fatalf("zero-size packet error prob = %g", p)
	}
}

func TestCorruptFrameDeterministic(t *testing.T) {
	p := Packet{Addr: 3, Payload: make([]byte, mem.LineSize)}
	frame, err := p.AppendEncodeFramed(nil)
	if err != nil {
		t.Fatal(err)
	}
	a := MustFaultModel(FaultConfig{Seed: 21, BER: 0.01})
	b := MustFaultModel(FaultConfig{Seed: 21, BER: 0.01})
	var flippedTotal int
	for i := 0; i < 200; i++ {
		wa, fa := a.CorruptFrame(frame, nil)
		wb, fb := b.CorruptFrame(frame, nil)
		if fa != fb {
			t.Fatalf("flip counts diverged at %d: %d vs %d", i, fa, fb)
		}
		flippedTotal += fa
		if string(wa) != string(wb) {
			t.Fatalf("corruption pattern diverged at %d", i)
		}
		if fa > 0 {
			if _, err := decodeFramed(wa); err == nil && fa == 1 {
				t.Fatal("single-bit corruption passed the CRC")
			}
		}
	}
	if flippedTotal == 0 {
		t.Fatal("no bits flipped at BER 0.01 over 200 frames")
	}
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{{BER: -1}, {BER: 1}, {RetryBudget: -1}}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
	if err := (FaultConfig{Seed: 1, BER: 1e-9, RetryBudget: 3}).Validate(); err != nil {
		t.Fatal(err)
	}
}
