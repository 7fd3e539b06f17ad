package sph

import (
	"math"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
)

// FindNeighbors rebuilds the neighbor search grid for the current particle
// positions, adapts smoothing lengths toward the target neighbor count
// using the standard n^(1/3) update, and rebuilds the per-step
// NeighborList — gather, filter, fold — that the subsequent passes stream
// over. With Options.ClosureWalk set, only neighbor counts and smoothing
// lengths are updated and the passes re-traverse the grid.
func (s *State) FindNeighbors() {
	maxH := s.P.MaxH()
	s.Grid = s.buildGrid(maxH)
	if s.Opt.ClosureWalk {
		s.List = nil
		s.countAndUpdateH(maxH)
		return
	}
	s.MaxH = s.buildNeighborList(maxH)
	s.NbrStats.Rebuilds++
	s.NbrStats.RebuildInit++
}

// countAndUpdateH is the closure-walk neighbor pass: count neighbors at the
// current support, apply the smoothing-length update, and fold the
// post-update maximum into the same parallel pass (previously a second
// full MaxH scan).
func (s *State) countAndUpdateH(maxH float64) {
	p := s.P
	ng := float64(s.Opt.NgTarget)
	s.MaxH = par.Reduce(p.N, func(lo, hi int) float64 {
		localMax := 0.0
		for i := lo; i < hi; i++ {
			n := s.Grid.CountNeighbors(i, 2*p.H[i])
			p.NC[i] = int32(n)
			h := updateH(p.H[i], n, ng, maxH)
			p.H[i] = h
			if h > localMax {
				localMax = h
			}
		}
		return localMax
	}, math.Max)
}

// buildGrid rebuilds the cell grid for the given maximum smoothing length,
// sized for the in-step h growth clamp. The grid reuses the state's
// buffers, so steady-state rebuilds allocate nothing.
func (s *State) buildGrid(maxH float64) *neighbors.Grid {
	p := s.P
	radius := 2 * maxH * hGrowthCap
	if radius <= 0 {
		radius = s.Opt.Box.MinExtent() / 4
	}
	s.gridBuf = neighbors.BuildGridInto(s.gridBuf, s.Opt.Box, p.X, p.Y, p.Z, radius)
	return s.gridBuf
}

// BuildGridFor constructs the neighbor search grid sized for the current
// maximum interaction radius.
func BuildGridFor(s *State) *neighbors.Grid {
	return s.buildGrid(s.P.MaxH())
}

// XMass computes the generalized volume-element normalization
// kx_i = sum_j x_j W_ij(h_i) (including the self contribution), where
// x_i = m_i for standard SPH (VEExponent = 0). The density estimate is
// rho_i = kx_i * m_i / x_i.
//
// This is the first of the two density-like passes of SPH-EXA's pipeline
// ("computeXMass" in the original framework).
func (s *State) XMass() {
	p := s.P
	// Volume element mass: with exponent p>0 this uses the previous step's
	// density, which is the standard VE iteration.
	par.For(p.N, func(i int) {
		xm := p.M[i]
		if s.Opt.VEExponent > 0 && p.Rho[i] > 0 {
			xm = p.M[i] * math.Pow(p.M[i]/p.Rho[i], s.Opt.VEExponent)
		}
		p.XM[i] = xm
	})
	if s.usePairs() {
		s.xmassSym()
	} else {
		s.xmassWalk()
	}
}

// NormalizationGradh computes the gradh (Omega) correction factors
// Omega_i = 1 + (h_i / (3 kx_i)) * sum_j x_j dW/dh_ij, which appear in the
// momentum and energy equations of the variable-smoothing-length
// formulation. ("computeVeDefGradh" in SPH-EXA.)
func (s *State) NormalizationGradh() {
	if s.usePairs() {
		s.gradhSym()
	} else {
		s.gradhWalk()
	}
}

// EquationOfState evaluates pressure and sound speed from density and
// internal energy for every particle.
func (s *State) EquationOfState() {
	p := s.P
	eos := s.Opt.EOS
	par.For(p.N, func(i int) {
		p.P[i], p.C[i] = eos.PressureSoundSpeed(p.Rho[i], p.U[i])
	})
}

// UpdateQuantities advances positions, velocities and internal energy by one
// timestep using a kick-drift scheme with the freshly computed accelerations
// and du/dt, then wraps positions into the (possibly periodic) box.
// ("UpdateQuantities" in SPH-EXA's main loop.)
func (s *State) UpdateQuantities(dt float64) {
	p := s.P
	box := s.Opt.Box
	par.For(p.N, func(i int) {
		p.VX[i] += p.AX[i] * dt
		p.VY[i] += p.AY[i] * dt
		p.VZ[i] += p.AZ[i] * dt
		p.X[i] += p.VX[i] * dt
		p.Y[i] += p.VY[i] * dt
		p.Z[i] += p.VZ[i] * dt
		p.X[i], p.Y[i], p.Z[i] = box.Wrap(p.X[i], p.Y[i], p.Z[i])
		p.U[i] += p.DU[i] * dt
		if p.U[i] < 1e-12 {
			p.U[i] = 1e-12
		}
	})
	s.Time += dt
	s.Step++
}
