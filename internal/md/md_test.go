package md

import (
	"math"
	"testing"
)

func TestLatticeSetup(t *testing.T) {
	s := NewSystem(Config{CellsPerSide: 3, Seed: 1})
	if s.N != 4*27 {
		t.Fatalf("N = %d", s.N)
	}
	// Density check: N / box^3 ~= 0.8442.
	rho := float64(s.N) / math.Pow(float64(s.Box), 3)
	if math.Abs(rho-0.8442) > 1e-3 {
		t.Fatalf("density = %v", rho)
	}
	// Positions inside the box.
	for _, p := range s.Pos {
		if p.X < 0 || p.X >= s.Box || p.Y < 0 || p.Y >= s.Box || p.Z < 0 || p.Z >= s.Box {
			t.Fatalf("particle outside box: %+v", p)
		}
	}
}

func TestZeroNetMomentum(t *testing.T) {
	s := NewSystem(Config{Seed: 2})
	var px, py, pz float64
	for _, v := range s.Vel {
		px += float64(v.X)
		py += float64(v.Y)
		pz += float64(v.Z)
	}
	if math.Abs(px) > 1e-3 || math.Abs(py) > 1e-3 || math.Abs(pz) > 1e-3 {
		t.Fatalf("net momentum (%g, %g, %g)", px, py, pz)
	}
}

// temperature is the instantaneous reduced temperature.
func temperature(s *System) float64 {
	return 2 * s.KineticEnergy() / (3 * float64(s.N))
}

func TestInitialTemperature(t *testing.T) {
	s := NewSystem(Config{Temperature: 1.44, Seed: 3})
	T := temperature(s)
	if T < 1.2 || T > 1.7 {
		t.Fatalf("initial temperature %v, want ~1.44", T)
	}
}

// TestNewtonThirdLaw: forces must sum to ~zero (pairwise antisymmetric).
func TestNewtonThirdLaw(t *testing.T) {
	s := NewSystem(Config{Seed: 4})
	s.ComputeForces(s.Pos)
	var fx, fy, fz float64
	for _, f := range s.Force {
		fx += float64(f.X)
		fy += float64(f.Y)
		fz += float64(f.Z)
	}
	if math.Abs(fx) > 1e-2 || math.Abs(fy) > 1e-2 || math.Abs(fz) > 1e-2 {
		t.Fatalf("net force (%g, %g, %g)", fx, fy, fz)
	}
}

// TestCellListMatchesBruteForce validates the neighbour search against an
// O(N^2) reference.
func TestCellListMatchesBruteForce(t *testing.T) {
	s := NewSystem(Config{CellsPerSide: 3, Seed: 5})
	s.ComputeForces(s.Pos)
	got := make([]Vec3, s.N)
	copy(got, s.Force)
	potGot := s.Potential

	// Brute force reference.
	ref := make([]Vec3, s.N)
	var potRef float64
	box := float64(s.Box)
	half := box / 2
	cut2 := float64(s.Cutoff) * float64(s.Cutoff)
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			dx := float64(s.Pos[i].X - s.Pos[j].X)
			dy := float64(s.Pos[i].Y - s.Pos[j].Y)
			dz := float64(s.Pos[i].Z - s.Pos[j].Z)
			for _, d := range []*float64{&dx, &dy, &dz} {
				if *d > half {
					*d -= box
				} else if *d < -half {
					*d += box
				}
			}
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= cut2 || r2 == 0 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			ff := 24 * inv2 * inv6 * (2*inv6 - 1)
			potRef += 4 * inv6 * (inv6 - 1)
			ref[i].X += float32(ff * dx)
			ref[i].Y += float32(ff * dy)
			ref[i].Z += float32(ff * dz)
			ref[j].X -= float32(ff * dx)
			ref[j].Y -= float32(ff * dy)
			ref[j].Z -= float32(ff * dz)
		}
	}
	if math.Abs(potGot-potRef) > 1e-6*math.Abs(potRef)+1e-6 {
		t.Fatalf("potential %v vs brute-force %v", potGot, potRef)
	}
	for i := range ref {
		if math.Abs(float64(got[i].X-ref[i].X)) > 1e-3 ||
			math.Abs(float64(got[i].Y-ref[i].Y)) > 1e-3 ||
			math.Abs(float64(got[i].Z-ref[i].Z)) > 1e-3 {
			t.Fatalf("force %d: %+v vs %+v", i, got[i], ref[i])
		}
	}
}

// TestEnergyConservationExact: NVE with exact transfers conserves total
// energy to a small drift over hundreds of steps.
func TestEnergyConservationExact(t *testing.T) {
	s := NewSystem(Config{Seed: 6})
	drift := RunOffloaded(s, 200, 0.004, 4)
	if drift > 0.02 {
		t.Fatalf("energy drift %.4f with exact transfers", drift)
	}
}

// TestDBA3BytesTolerable: the §VII claim that the application tolerates
// DBA's approximation — 3 dirty bytes keeps the melt stable.
func TestDBA3BytesTolerable(t *testing.T) {
	exact := RunOffloaded(NewSystem(Config{Seed: 7}), 200, 0.004, 4)
	dba3 := RunOffloaded(NewSystem(Config{Seed: 7}), 200, 0.004, 3)
	if dba3 > exact+0.05 {
		t.Fatalf("3-byte DBA drift %.4f vs exact %.4f — not tolerable", dba3, exact)
	}
}

// TestDBA2BytesWorseThan3: an ablation — fewer dirty bytes means more
// approximation error in the dynamics.
func TestDBA2BytesWorseThan3(t *testing.T) {
	dba3 := RunOffloaded(NewSystem(Config{Seed: 8}), 150, 0.004, 3)
	dba2 := RunOffloaded(NewSystem(Config{Seed: 8}), 150, 0.004, 2)
	if dba2 < dba3 {
		t.Fatalf("2-byte drift %.4f < 3-byte drift %.4f", dba2, dba3)
	}
}

func TestMeltingHappens(t *testing.T) {
	// Kinetic and potential energy exchange as the lattice melts: the
	// temperature should drop from its initial value as potential energy
	// rises (classic LJ melt behaviour).
	s := NewSystem(Config{Seed: 9})
	t0 := temperature(s)
	RunOffloaded(s, 150, 0.004, 4)
	t1 := temperature(s)
	if math.Abs(t1-t0) < 1e-3 {
		t.Fatalf("temperature unchanged (%v -> %v); dynamics frozen?", t0, t1)
	}
}

func TestComputeForcesPanicsOnBadInput(t *testing.T) {
	s := NewSystem(Config{Seed: 10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ComputeForces(make([]Vec3, 3))
}

// TestGeneralityReport: the §VII numbers — baseline comm ~27%, total
// improvement ~21.5%, CXL ~78% of it, volume reduced by DBA.
func TestGeneralityReport(t *testing.T) {
	r := Generality(4_000_000)
	if r.CommFraction < 0.15 || r.CommFraction > 0.45 {
		t.Fatalf("baseline comm fraction %.2f, paper measures 27%%", r.CommFraction)
	}
	if r.Improvement < 0.10 || r.Improvement > 0.40 {
		t.Fatalf("improvement %.3f, paper reports 21.5%%", r.Improvement)
	}
	if r.CXLContribution < r.DBAContribution {
		t.Fatalf("CXL share %.2f must dominate DBA share %.2f (paper: 78/22)", r.CXLContribution, r.DBAContribution)
	}
	if sum := r.CXLContribution + r.DBAContribution; sum < 0.99 || sum > 1.01 {
		t.Fatalf("contributions sum to %.3f", sum)
	}
	if r.VolumeReduction <= 0.05 || r.VolumeReduction >= 0.30 {
		t.Fatalf("volume reduction %.3f, paper reports 17%%", r.VolumeReduction)
	}
	if r.HoursSavedPerMonth <= 0 {
		t.Fatal("long-run saving must be positive")
	}
}

func TestStepTimingAccounting(t *testing.T) {
	b := SimulateStep(1_000_000, Baseline)
	if b.Total() != b.Kernel+b.ForceXfer+b.Integrate+b.PosXfer {
		t.Fatal("total mismatch")
	}
	c := SimulateStep(1_000_000, CXLOnly)
	if c.Total() >= b.Total() {
		t.Fatal("CXL must beat baseline")
	}
	d := SimulateStep(1_000_000, CXLWithDBA)
	if d.LinkBytes >= c.LinkBytes {
		t.Fatal("DBA must reduce link volume")
	}
}

// TestTransferVolumes: a baseline step moves every position and every
// force, 3 FP32 words each per particle.
func TestTransferVolumes(t *testing.T) {
	s := NewSystem(Config{CellsPerSide: 3, Seed: 1})
	if got := SimulateStep(s.N, Baseline).LinkBytes; got != 2*int64(s.N)*12 {
		t.Fatalf("link bytes = %d, want %d", got, 2*int64(s.N)*12)
	}
}

// TestGeneralityScalesWithAtoms: step times grow with system size; the
// comm fraction stays roughly constant (all terms linear in N).
func TestGeneralityScalesWithAtoms(t *testing.T) {
	small := Generality(1_000_000)
	big := Generality(8_000_000)
	if big.BaselineStep <= small.BaselineStep {
		t.Fatal("step time must grow with atoms")
	}
	if diff := big.CommFraction - small.CommFraction; diff > 0.01 || diff < -0.01 {
		t.Fatalf("comm fraction should be size-invariant: %.3f vs %.3f",
			small.CommFraction, big.CommFraction)
	}
}

// TestScaledCoordinateRoundTrip: the fixed-binade encoding is invertible
// within FP32 precision for in-box positions.
func TestScaledCoordinateRoundTrip(t *testing.T) {
	s := NewSystem(Config{Seed: 31})
	u := make([]Vec3, s.N)
	back := make([]Vec3, s.N)
	s.toScaled(u, s.Pos)
	for _, v := range u {
		for _, c := range []float32{v.X, v.Y, v.Z} {
			if c < 1 || c >= 2 {
				t.Fatalf("scaled coordinate %v outside [1,2)", c)
			}
		}
	}
	s.fromScaled(back, u)
	for i := range back {
		if math.Abs(float64(back[i].X-s.Pos[i].X)) > 1e-5*float64(s.Box) {
			t.Fatalf("particle %d: %v vs %v", i, back[i].X, s.Pos[i].X)
		}
	}
}
