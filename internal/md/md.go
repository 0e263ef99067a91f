// Package md is a Lennard-Jones molecular-dynamics simulator (the LAMMPS
// "3D LJ melt" workload of the paper's §VII generality study): an FCC
// lattice melting under NVE dynamics with velocity-Verlet integration,
// periodic boundaries, and cell-list neighbour search.
//
// The offload structure mirrors the paper's: the accelerator computes
// forces, ships them to the CPU; the CPU integrates positions and ships
// them back — an iterative producer/consumer pattern with tolerance for
// approximation, i.e. exactly the three TECO-applicability conditions.
package md

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec3 is a 3-component single-precision vector. Positions are FP32 so the
// dirty-byte machinery applies to them exactly as to DL parameters.
type Vec3 struct{ X, Y, Z float32 }

// System is the particle state in reduced LJ units (sigma = epsilon = 1).
type System struct {
	N      int
	Box    float32 // cubic box edge
	Cutoff float32
	Pos    []Vec3
	Vel    []Vec3
	Force  []Vec3

	cellsPerSide int
	cells        [][]int32
	// Virial and potential accumulated by the last force evaluation.
	Potential float64
}

// Config sets up the melt.
type Config struct {
	// CellsPerSide: the FCC lattice replicates 4 atoms per cell, so
	// N = 4 * CellsPerSide^3 (default 4 -> 256 atoms).
	CellsPerSide int
	// Density is reduced number density (default 0.8442, the classic LJ
	// melt point).
	Density float64
	// Temperature is the initial reduced temperature (default 1.44).
	Temperature float64
	// Cutoff is the interaction cutoff (default 2.5).
	Cutoff float64
	Seed   int64
}

func (c Config) withDefaults() Config {
	if c.CellsPerSide == 0 {
		c.CellsPerSide = 4
	}
	if c.Density == 0 {
		c.Density = 0.8442
	}
	if c.Temperature == 0 {
		c.Temperature = 1.44
	}
	if c.Cutoff == 0 {
		c.Cutoff = 2.5
	}
	return c
}

// NewSystem builds an FCC lattice with Maxwell-distributed velocities, net
// momentum removed — the standard LJ melt setup.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	nc := cfg.CellsPerSide
	n := 4 * nc * nc * nc
	box := float32(math.Cbrt(float64(n) / cfg.Density))
	s := &System{
		N:      n,
		Box:    box,
		Cutoff: float32(cfg.Cutoff),
		Pos:    make([]Vec3, n),
		Vel:    make([]Vec3, n),
		Force:  make([]Vec3, n),
	}
	// FCC basis.
	basis := [4][3]float32{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	a := box / float32(nc)
	i := 0
	for x := 0; x < nc; x++ {
		for y := 0; y < nc; y++ {
			for z := 0; z < nc; z++ {
				for _, b := range basis {
					s.Pos[i] = Vec3{
						X: (float32(x) + b[0]) * a,
						Y: (float32(y) + b[1]) * a,
						Z: (float32(z) + b[2]) * a,
					}
					i++
				}
			}
		}
	}
	// Maxwell velocities at the target temperature.
	rng := rand.New(rand.NewSource(cfg.Seed))
	sd := float32(math.Sqrt(cfg.Temperature))
	var mean Vec3
	for i := range s.Vel {
		s.Vel[i] = Vec3{
			X: sd * float32(rng.NormFloat64()),
			Y: sd * float32(rng.NormFloat64()),
			Z: sd * float32(rng.NormFloat64()),
		}
		mean.X += s.Vel[i].X
		mean.Y += s.Vel[i].Y
		mean.Z += s.Vel[i].Z
	}
	inv := 1 / float32(n)
	for i := range s.Vel {
		s.Vel[i].X -= float32(mean.X * inv)
		s.Vel[i].Y -= float32(mean.Y * inv)
		s.Vel[i].Z -= float32(mean.Z * inv)
	}
	s.buildCells()
	s.ComputeForces(s.Pos)
	return s
}

// wrap folds a coordinate into [0, box). Non-finite coordinates (a blown-up
// trajectory, e.g. under an intolerably aggressive dirty-byte setting) fold
// to 0 so the simulation remains well-defined and terminates.
func (s *System) wrap(v float32) float32 {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	b := float64(s.Box)
	f = math.Mod(f, b)
	if f < 0 {
		f += b
	}
	if f >= b {
		f = 0
	}
	return float32(f)
}

func (s *System) buildCells() {
	cps := int(s.Box / s.Cutoff)
	if cps < 3 {
		cps = 3
	}
	s.cellsPerSide = cps
	total := cps * cps * cps
	if s.cells == nil || len(s.cells) != total {
		s.cells = make([][]int32, total)
	}
	for i := range s.cells {
		s.cells[i] = s.cells[i][:0]
	}
}

func (s *System) cellIndexOf(p Vec3) int {
	cps := s.cellsPerSide
	cw := s.Box / float32(cps)
	clamp := func(c int) int {
		if c < 0 {
			return 0
		}
		if c >= cps {
			return cps - 1
		}
		return c
	}
	cx := clamp(int(s.wrap(p.X) / cw))
	cy := clamp(int(s.wrap(p.Y) / cw))
	cz := clamp(int(s.wrap(p.Z) / cw))
	return (cx*cps+cy)*cps + cz
}

// ComputeForces evaluates LJ forces from the given positions (which may be
// the accelerator's DBA-merged copy) into s.Force, and returns the
// potential energy. This is the "offloaded kernel".
func (s *System) ComputeForces(pos []Vec3) float64 {
	if len(pos) != s.N {
		panic(fmt.Sprintf("md: %d positions for %d particles", len(pos), s.N))
	}
	for i := range s.Force {
		s.Force[i] = Vec3{}
	}
	s.buildCells()
	for i := 0; i < s.N; i++ {
		s.cells[s.cellIndexOf(pos[i])] = append(s.cells[s.cellIndexOf(pos[i])], int32(i))
	}
	cut2 := float64(s.Cutoff) * float64(s.Cutoff)
	box := float64(s.Box)
	half := box / 2
	var pot float64
	cps := s.cellsPerSide
	cellAt := func(x, y, z int) []int32 {
		x = (x%cps + cps) % cps
		y = (y%cps + cps) % cps
		z = (z%cps + cps) % cps
		return s.cells[(x*cps+y)*cps+z]
	}
	for cx := 0; cx < cps; cx++ {
		for cy := 0; cy < cps; cy++ {
			for cz := 0; cz < cps; cz++ {
				home := cellAt(cx, cy, cz)
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						for dz := -1; dz <= 1; dz++ {
							nb := cellAt(cx+dx, cy+dy, cz+dz)
							for _, iIdx := range home {
								for _, jIdx := range nb {
									if jIdx <= iIdx {
										continue
									}
									i, j := int(iIdx), int(jIdx)
									ddx := float64(pos[i].X - pos[j].X)
									ddy := float64(pos[i].Y - pos[j].Y)
									ddz := float64(pos[i].Z - pos[j].Z)
									// Minimum image.
									if ddx > half {
										ddx -= box
									} else if ddx < -half {
										ddx += box
									}
									if ddy > half {
										ddy -= box
									} else if ddy < -half {
										ddy += box
									}
									if ddz > half {
										ddz -= box
									} else if ddz < -half {
										ddz += box
									}
									r2 := float64(ddx*ddx) + float64(ddy*ddy) + float64(ddz*ddz)
									if r2 >= cut2 || r2 == 0 {
										continue
									}
									inv2 := 1 / r2
									inv6 := float64(inv2 * inv2 * inv2)
									// LJ: U = 4(r^-12 - r^-6), F = 24(2 r^-12 - r^-6)/r^2 * dr.
									ff := 24 * inv2 * inv6 * (float64(2*inv6) - 1)
									pot += float64(4 * inv6 * (inv6 - 1))
									fx := float32(ff * ddx)
									fy := float32(ff * ddy)
									fz := float32(ff * ddz)
									s.Force[i].X += fx
									s.Force[i].Y += fy
									s.Force[i].Z += fz
									s.Force[j].X -= fx
									s.Force[j].Y -= fy
									s.Force[j].Z -= fz
								}
							}
						}
					}
				}
			}
		}
	}
	s.Potential = pot
	return pot
}

// KineticEnergy returns the total kinetic energy.
func (s *System) KineticEnergy() float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += float64(float64(v.X)*float64(v.X)) + float64(float64(v.Y)*float64(v.Y)) + float64(float64(v.Z)*float64(v.Z))
	}
	return ke / 2
}

// TotalEnergy returns kinetic + potential from the last force evaluation.
// KineticEnergy's halving compiles to a product once inlined, so it is
// converted before the add like any other product.
func (s *System) TotalEnergy() float64 { return float64(s.KineticEnergy()) + s.Potential }

// VerletStep advances one NVE velocity-Verlet step of size dt. After the
// drift it calls forceEval, which must refresh s.Force from the new
// positions — in the offloaded setup that is "transfer positions to the
// accelerator, run the kernel there"; nil means evaluate from s.Pos
// directly.
func (s *System) VerletStep(dt float32, forceEval func()) {
	if forceEval == nil {
		forceEval = func() { s.ComputeForces(s.Pos) }
	}
	half := dt / 2
	for i := range s.Vel {
		s.Vel[i].X += float32(half * s.Force[i].X)
		s.Vel[i].Y += float32(half * s.Force[i].Y)
		s.Vel[i].Z += float32(half * s.Force[i].Z)
	}
	for i := range s.Pos {
		s.Pos[i].X = s.wrap(s.Pos[i].X + float32(dt*s.Vel[i].X))
		s.Pos[i].Y = s.wrap(s.Pos[i].Y + float32(dt*s.Vel[i].Y))
		s.Pos[i].Z = s.wrap(s.Pos[i].Z + float32(dt*s.Vel[i].Z))
	}
	forceEval()
	for i := range s.Vel {
		s.Vel[i].X += float32(half * s.Force[i].X)
		s.Vel[i].Y += float32(half * s.Force[i].Y)
		s.Vel[i].Z += float32(half * s.Force[i].Z)
	}
}
