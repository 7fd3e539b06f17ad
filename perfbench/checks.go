package main

import (
	"math"
	"sort"

	"sphenergy"
	"sphenergy/internal/sfc"
	"sphenergy/internal/sph"
)

// kxTol is the relative tolerance of the density check. The pipeline and
// the brute-force sum add the same terms in a different order, which
// moves the result by ~1e-15; a missing or spurious neighbor moves it by
// far more than 1e-9.
const kxTol = 1e-9

// fieldsOK reports whether every particle field is finite and the total
// mass equals mass0 exactly (every workload gives all particles the same
// mass, so the sum does not depend on the order an SFC reorder leaves).
func fieldsOK(p *sph.Particles, mass0 float64) bool {
	fields := [][]float64{
		p.X, p.Y, p.Z, p.VX, p.VY, p.VZ, p.AX, p.AY, p.AZ,
		p.M, p.H, p.Rho, p.P, p.C, p.U, p.DU, p.XM, p.Kx, p.Gradh,
		p.C11, p.C12, p.C13, p.C22, p.C23, p.C33, p.DivV, p.CurlV, p.Alpha,
	}
	for _, f := range fields {
		if len(f) != p.N {
			return false
		}
		for _, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return totalMass(p) == mass0
}

func totalMass(p *sph.Particles) float64 {
	m := 0.0
	for _, v := range p.M {
		m += v
	}
	return m
}

// minImage maps a displacement along one axis of length l to its nearest
// periodic image.
func minImage(d, l float64, periodic bool) float64 {
	if periodic {
		d -= l * math.Round(d/l)
	}
	return d
}

// kxMismatches recomputes Kx for each sampled particle as a brute-force
// sum over all particles, kx_i = sum_j x_j W(|r_ij|, h_i) with minimum-image
// displacements, and returns how many differ from the pipeline's Kx by
// more than kxTol. Particles whose support holds more than ngmax
// neighbors are skipped: the pipeline truncates their lists by design.
func kxMismatches(s *sph.State, sample []int) int {
	p, k, box := s.P, s.Opt.Kernel, s.Opt.Box
	ngmax := 0
	if s.List != nil {
		ngmax = s.List.Ngmax
	}
	bad := 0
	for _, i := range sample {
		hi := p.H[i]
		support := k.SupportRadius() * hi
		sumKx := p.XM[i] * k.W(0, hi)
		n := 0
		for j := 0; j < p.N; j++ {
			if j == i {
				continue
			}
			r := pairDistance(box, p, i, j)
			if r < support {
				sumKx += p.XM[j] * k.W(r, hi)
				n++
			}
		}
		if ngmax > 0 && n > ngmax {
			continue
		}
		if math.Abs(sumKx-p.Kx[i]) > kxTol*math.Abs(sumKx) {
			bad++
		}
	}
	return bad
}

func pairDistance(box sfc.Box, p *sph.Particles, i, j int) float64 {
	dx := minImage(p.X[i]-p.X[j], box.Lx(), box.PBCx)
	dy := minImage(p.Y[i]-p.Y[j], box.Ly(), box.PBCy)
	dz := minImage(p.Z[i]-p.Z[j], box.Lz(), box.PBCz)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// conservation holds the totals the drift check compares.
type conservation struct {
	energy      float64 // kinetic + internal + potential
	energyScale float64 // kinetic + internal + |potential|
	mom         [3]float64
	momScale    float64 // sum of m|v|
}

func measureConservation(s *sph.State, pot []float64) conservation {
	e := s.ComputeEnergies(pot)
	c := conservation{
		energy:      e.Total(),
		energyScale: e.Kinetic + e.Internal + math.Abs(e.Potential),
		mom:         [3]float64{e.MomX, e.MomY, e.MomZ},
	}
	p := s.P
	for i := 0; i < p.N; i++ {
		c.momScale += p.M[i] * math.Sqrt(p.VX[i]*p.VX[i]+p.VY[i]*p.VY[i]+p.VZ[i]*p.VZ[i])
	}
	return c
}

// drift returns the relative energy and momentum drift of now against
// ref.
func drift(ref, now conservation) (energy, momentum float64) {
	energy = math.Abs(now.energy-ref.energy) / ref.energyScale
	dm := math.Sqrt(sq(now.mom[0]-ref.mom[0]) + sq(now.mom[1]-ref.mom[1]) + sq(now.mom[2]-ref.mom[2]))
	return energy, dm / ref.momScale
}

func sq(x float64) float64 { return x * x }

// simFingerprint collects the simulated outcome of a modeled run as raw
// float bits: time to solution, the energy totals, every step boundary
// and every rank's per-function time and energy. Two runs simulated the
// same thing exactly when their fingerprints are equal.
func simFingerprint(r *sphenergy.Result) []uint64 {
	rep := r.Report
	vals := []float64{
		r.WallTimeS, r.SetupTimeS, r.SetupEnergyJ, rep.WallTimeS,
		rep.TotalEnergyJ, rep.GPUEnergyJ, rep.CPUEnergyJ, rep.MemEnergyJ, rep.OtherEnergyJ,
	}
	vals = append(vals, r.StepBoundariesS...)
	for _, rank := range rep.Ranks {
		names := make([]string, 0, len(rank.Functions))
		for n := range rank.Functions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			f := rank.Functions[n]
			vals = append(vals, float64(f.Calls), f.TimeS, f.GPUJ, f.CPUJ, f.MemJ, f.OtherJ, f.CommS)
		}
	}
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	return bits
}
