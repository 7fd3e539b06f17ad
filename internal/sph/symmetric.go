package sph

import (
	"math"

	"sphenergy/internal/kernel"
	"sphenergy/internal/par"
)

// Symmetric (Newton's third law) pair passes: the folded pair list visits
// every interacting pair exactly once, computes the shared per-pair terms —
// distances, artificial viscosity, kernel derivatives at both smoothing
// lengths — a single time, and scatters contributions to both endpoints
// through par.Scatter's per-worker private accumulators. The pair set and
// the per-contribution arithmetic reproduce the per-particle closure walk
// (including ngmax truncation and asymmetric-support pairs), so the only
// deviation from walk.go is float summation order: ~1e-15 relative,
// deterministic for a fixed GOMAXPROCS.

// Pair-record dispositions written by the first buildPairs sweep, one byte
// per directed main-list edge.
const (
	pairSkip = 0 // the mirror edge owns this pair
	pairOne  = 1 // record owned here; only this direction exists
	pairTwo  = 2 // record owned here; mirror edge exists too (PairBoth=1)
)

// usePairs reports whether the passes stream over the folded pair list:
// after any FindNeighbors outside ClosureWalk mode. Callers that set up
// Grid manually (without FindNeighbors) fall back to the closure walk.
func (s *State) usePairs() bool {
	return !s.Opt.ClosureWalk && s.List != nil
}

// rowHas reports whether row j of the main list contains index i. Rows are
// in grid traversal order (unsorted), so this is a linear scan; it only
// runs for rows truncated at ngmax, which are rare by construction.
func (nl *NeighborList) rowHas(j int32, i int32) bool {
	for k := nl.Offsets[j]; k < nl.Offsets[j+1]; k++ {
		if nl.Idx[k] == i {
			return true
		}
	}
	return false
}

// buildPairs folds the main CSR list into the symmetric pair list. For a
// directed edge a→b the reverse edge b→a exists iff dist < 2·h_b and b's
// row was not truncated: the h-growth clamp guarantees b's gather radius
// 2·hGrowthCap·h_old_b covers 2·h_new_b, so the only way a sub-support
// pair can be missing from b's row is the ngmax cap — checked by scanning
// the (full-length) row. Two parallel sweeps — disposition + count, then
// fill — with a serial prefix sum in between; no atomics, no per-segment
// sorts, deterministic output independent of worker count. The fill
// recomputes each owned record's displacement from the positions with the
// walk's minimum-image arithmetic, so the main list carries no
// displacements.
func (s *State) buildPairs() {
	p := s.P
	n := p.N
	nl := s.List
	total := int(nl.Offsets[n])
	nl.pairDisp = ensureU8(nl.pairDisp, total)
	nl.pairCnt = ensureInt32(nl.pairCnt, n)
	ngmax := int32(nl.Ngmax)

	par.ForChunked(n, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			cnt := int32(0)
			for k := nl.Offsets[a]; k < nl.Offsets[a+1]; k++ {
				b := nl.Idx[k]
				rev := nl.Dist[k] < 2*p.H[b]
				if rev && nl.Offsets[b+1]-nl.Offsets[b] == ngmax {
					rev = nl.rowHas(b, int32(a))
				}
				switch {
				case int(b) > a:
					if rev {
						nl.pairDisp[k] = pairTwo
					} else {
						nl.pairDisp[k] = pairOne
					}
					cnt++
				case !rev:
					// b's support misses a (or b's row is capped): this
					// edge is the pair's only representation.
					nl.pairDisp[k] = pairOne
					cnt++
				default:
					nl.pairDisp[k] = pairSkip
				}
			}
			nl.pairCnt[a] = cnt
		}
	})

	nl.PairOffsets = ensureInt32(nl.PairOffsets, n+1)
	off := int32(0)
	for a := 0; a < n; a++ {
		nl.PairOffsets[a] = off
		off += nl.pairCnt[a]
	}
	nl.PairOffsets[n] = off
	np := int(off)
	nl.PairIdx = ensureInt32(nl.PairIdx, np)
	nl.PairBoth = ensureU8(nl.PairBoth, np)
	nl.PairDx = ensureF64(nl.PairDx, np)
	nl.PairDy = ensureF64(nl.PairDy, np)
	nl.PairDz = ensureF64(nl.PairDz, np)
	nl.PairDist = ensureF64(nl.PairDist, np)

	box := s.Opt.Box
	lx, ly, lz := box.Lx(), box.Ly(), box.Lz()
	hx, hy, hz := lx/2, ly/2, lz/2
	pbx, pby, pbz := box.PBCx, box.PBCy, box.PBCz
	px, py, pz := p.X, p.Y, p.Z
	par.ForChunked(n, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			xa, ya, za := px[a], py[a], pz[a]
			w := nl.PairOffsets[a]
			for k := nl.Offsets[a]; k < nl.Offsets[a+1]; k++ {
				d := nl.pairDisp[k]
				if d == pairSkip {
					continue
				}
				b := nl.Idx[k]
				dx := xa - px[b]
				if pbx {
					if dx > hx {
						dx -= lx
					} else if dx < -hx {
						dx += lx
					}
				}
				dy := ya - py[b]
				if pby {
					if dy > hy {
						dy -= ly
					} else if dy < -hy {
						dy += ly
					}
				}
				dz := za - pz[b]
				if pbz {
					if dz > hz {
						dz -= lz
					} else if dz < -hz {
						dz += lz
					}
				}
				nl.PairIdx[w] = b
				nl.PairBoth[w] = d - pairOne
				nl.PairDx[w] = dx
				nl.PairDy[w] = dy
				nl.PairDz[w] = dz
				nl.PairDist[w] = nl.Dist[k]
				w++
			}
		}
	})
	// The per-pair kernel cache indexes the old fold; the fused XMass
	// sweep of the next step rebuilds it.
	s.symCacheOK = false
	s.symDsumOK = false
}

// wdwFunc returns a combined W/DW evaluator for k, using the kernel's
// fused table lookup (kernel.PairEvaluator) when it has one; the fallback
// calls W and DW separately, producing the same values.
func wdwFunc(k kernel.Kernel) func(r, h float64) (float64, float64) {
	if pe, ok := k.(kernel.PairEvaluator); ok {
		return pe.WDW
	}
	return func(r, h float64) (float64, float64) {
		return k.W(r, h), k.DW(r, h)
	}
}

// ensurePairKernels fills the per-pair kernel-value cache (W and dW/dr at
// both endpoints' smoothing lengths) when the fused XMass sweep has not
// already done so this step — the safety net for callers that drive the
// passes out of pipeline order.
func (s *State) ensurePairKernels() {
	if s.symCacheOK {
		return
	}
	p := s.P
	nl := s.List
	n := p.N
	np := int(nl.PairOffsets[n])
	s.symWa = ensureF64(s.symWa, np)
	s.symWb = ensureF64(s.symWb, np)
	s.symDwa = ensureF64(s.symDwa, np)
	s.symDwb = ensureF64(s.symDwb, np)
	wa, wb, dwa, dwb := s.symWa, s.symWb, s.symDwa, s.symDwb
	wdw := wdwFunc(s.Opt.Kernel)
	par.ForChunked(n, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			ha := p.H[a]
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				d := nl.PairDist[t]
				wa[t], dwa[t] = wdw(d, ha)
				wb[t], dwb[t] = wdw(d, p.H[nl.PairIdx[t]])
			}
		}
	})
	s.symCacheOK = true
}

// xmassSym is the fused folded density sweep — the only pass that touches
// the kernel tables in symmetric mode. For every pair it evaluates W and
// dW/dr at both smoothing lengths through one fused lookup per endpoint,
// caches the four values for the downstream IAD and momentum passes, and
// accumulates the XMass and NormalizationGradh sums together (stride-2
// scatter), so the gradh pass reduces to its O(n) finalization. Each
// contribution is float-identical to the walk's per-direction arithmetic;
// only summation order differs.
func (s *State) xmassSym() {
	p := s.P
	k := s.Opt.Kernel
	nl := s.List
	n := p.N
	np := int(nl.PairOffsets[n])
	s.symWa = ensureF64(s.symWa, np)
	s.symWb = ensureF64(s.symWb, np)
	s.symDwa = ensureF64(s.symDwa, np)
	s.symDwb = ensureF64(s.symDwb, np)
	s.symDsum = ensureF64(s.symDsum, n)
	wa, wb, dwa, dwb := s.symWa, s.symWb, s.symDwa, s.symDwb
	wdw := wdwFunc(k)
	bufs := s.scat.Run(n, n, 2, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			ha := p.H[a]
			xma := p.XM[a]
			sum, dsum := 0.0, 0.0
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				d := nl.PairDist[t]
				hb := p.H[b]
				w1, dw1 := wdw(d, ha)
				w2, dw2 := wdw(d, hb)
				wa[t], dwa[t] = w1, dw1
				wb[t], dwb[t] = w2, dw2
				xmb := p.XM[b]
				sum += xmb * w1
				dsum += xmb * (-(3*w1 + d*dw1) / ha)
				if nl.PairBoth[t] != 0 {
					o := int(b) * 2
					acc[o] += xma * w2
					acc[o+1] += xma * (-(3*w2 + d*dw2) / hb)
				}
			}
			o := a * 2
			acc[o] += sum
			acc[o+1] += dsum
		}
	})
	dsums := s.symDsum
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h := p.H[i]
			w0 := k.W(0, h)
			sum := p.XM[i] * w0
			dsum := -3 * p.XM[i] * w0 / h
			for _, b := range bufs {
				sum += b[2*i]
				dsum += b[2*i+1]
			}
			p.Kx[i] = sum
			p.Rho[i] = sum * p.M[i] / p.XM[i]
			dsums[i] = dsum
		}
	})
	s.symCacheOK = true
	s.symDsumOK = true
}

// gradhSym finalizes the NormalizationGradh pass from the sums the fused
// XMass sweep accumulated; when those are missing (passes driven out of
// pipeline order) it falls back to the closure-walk pass.
func (s *State) gradhSym() {
	if !s.symDsumOK {
		s.gradhWalk()
		return
	}
	p := s.P
	dsums := s.symDsum
	par.ForChunked(p.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			omega := 1 + p.H[i]/(3*p.Kx[i])*dsums[i]
			if omega < 0.2 || math.IsNaN(omega) {
				omega = 0.2
			}
			p.Gradh[i] = omega
		}
	})
}

// iadSym is the folded IAD pass: kernel values come from the per-pair
// cache filled by the fused XMass sweep (no table lookups here), the
// tensor loop shares the six dyadic products (dx·dx … dz·dz) between the
// two endpoints and reads precomputed volume elements V = m/ρ instead of
// dividing per pair, and the gradient loop accumulates the divergence and
// the three curl components directly (4 accumulator slots instead of the
// 9 g-tensor entries — only those four combinations are ever consumed).
func (s *State) iadSym() {
	s.ensurePairKernels()
	p := s.P
	nl := s.List
	n := p.N
	kwa, kwb := s.symWa, s.symWb
	s.symV = ensureF64(s.symV, n)
	v := s.symV
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] = p.M[i] / p.Rho[i]
		}
	})

	bufs := s.scat.Run(n, n, 6, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			va := v[a]
			var txx, txy, txz, tyy, tyz, tzz float64
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				dx, dy, dz := nl.PairDx[t], nl.PairDy[t], nl.PairDz[t]
				xx, xy, xz := dx*dx, dx*dy, dx*dz
				yy, yz, zz := dy*dy, dy*dz, dz*dz
				wa := kwa[t] * v[b]
				txx += xx * wa
				txy += xy * wa
				txz += xz * wa
				tyy += yy * wa
				tyz += yz * wa
				tzz += zz * wa
				if nl.PairBoth[t] != 0 {
					wb := kwb[t] * va
					o := int(b) * 6
					acc[o] += xx * wb
					acc[o+1] += xy * wb
					acc[o+2] += xz * wb
					acc[o+3] += yy * wb
					acc[o+4] += yz * wb
					acc[o+5] += zz * wb
				}
			}
			o := a * 6
			acc[o] += txx
			acc[o+1] += txy
			acc[o+2] += txz
			acc[o+3] += tyy
			acc[o+4] += tyz
			acc[o+5] += tzz
		}
	})
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * 6
			var t6 [6]float64
			for _, b := range bufs {
				t6[0] += b[o]
				t6[1] += b[o+1]
				t6[2] += b[o+2]
				t6[3] += b[o+3]
				t6[4] += b[o+4]
				t6[5] += b[o+5]
			}
			s.storeIADTensor(i, t6[0], t6[1], t6[2], t6[3], t6[4], t6[5])
		}
	})

	bufs = s.scat.Run(n, n, 4, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			va := v[a]
			c11a, c12a, c13a := p.C11[a], p.C12[a], p.C13[a]
			c22a, c23a, c33a := p.C22[a], p.C23[a], p.C33[a]
			var divA, cxA, cyA, czA float64
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				// r_b - r_a = -(dx, dy, dz); dv = v_b - v_a, both from a's
				// side, exactly as the walk writes them.
				rx, ry, rz := -nl.PairDx[t], -nl.PairDy[t], -nl.PairDz[t]
				dvx := p.VX[b] - p.VX[a]
				dvy := p.VY[b] - p.VY[a]
				dvz := p.VZ[b] - p.VZ[a]
				wa := kwa[t] * v[b]
				ax := c11a*rx + c12a*ry + c13a*rz
				ay := c12a*rx + c22a*ry + c23a*rz
				az := c13a*rx + c23a*ry + c33a*rz
				divA += (dvx*ax + dvy*ay + dvz*az) * wa
				cxA += (dvz*ay - dvy*az) * wa
				cyA += (dvx*az - dvz*ax) * wa
				czA += (dvy*ax - dvx*ay) * wa
				if nl.PairBoth[t] != 0 {
					// From b's side every factor flips sign: r_a - r_b =
					// +(dx,dy,dz) and dv_b = -dv, so div and curl keep the
					// same formulas with b's tensor A_b = C_b·(dx,dy,dz).
					wb := kwb[t] * va
					bx := p.C11[b]*rx + p.C12[b]*ry + p.C13[b]*rz
					by := p.C12[b]*rx + p.C22[b]*ry + p.C23[b]*rz
					bz := p.C13[b]*rx + p.C23[b]*ry + p.C33[b]*rz
					o := int(b) * 4
					acc[o] += (dvx*bx + dvy*by + dvz*bz) * wb
					acc[o+1] += (dvz*by - dvy*bz) * wb
					acc[o+2] += (dvx*bz - dvz*bx) * wb
					acc[o+3] += (dvy*bx - dvx*by) * wb
				}
			}
			o := a * 4
			acc[o] += divA
			acc[o+1] += cxA
			acc[o+2] += cyA
			acc[o+3] += czA
		}
	})
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * 4
			var div, cx, cy, cz float64
			for _, b := range bufs {
				div += b[o]
				cx += b[o+1]
				cy += b[o+2]
				cz += b[o+3]
			}
			p.DivV[i] = div
			p.CurlV[i] = math.Sqrt(cx*cx + cy*cy + cz*cz)
		}
	})
}

// momentumSym is the folded MomentumEnergy pass — the big win of the
// symmetric path: the artificial viscosity, both kernel derivatives
// (cached by the fused XMass sweep, no table lookups here) and the
// symmetrized pressure bracket are computed once per pair instead of
// once per direction, and P/(Ω ρ²) and the Balsara factor are hoisted to
// per-particle precomputations (the walk re-derives both for the far
// particle on every visit). The far endpoint of a one-way record still
// integrates the pair when the distance reaches its own support boundary —
// dist >= 2·h, the pairs the walk's momentum scan admits through the other
// particle's support.
func (s *State) momentumSym() {
	s.ensurePairKernels()
	p := s.P
	nl := s.List
	n := p.N
	kdwa, kdwb := s.symDwa, s.symDwb
	s.symPrho = ensureF64(s.symPrho, n)
	s.symF = ensureF64(s.symF, n)
	prho, f := s.symPrho, s.symF
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rho := p.Rho[i]
			prho[i] = p.P[i] / (p.Gradh[i] * rho * rho)
			f[i] = balsara(p.DivV[i], p.CurlV[i], p.C[i], p.H[i])
		}
	})
	avBeta := s.Opt.AVBeta
	bufs := s.scat.Run(n, n, 4, func(lo, hi int, acc []float64) {
		for a := lo; a < hi; a++ {
			ha := p.H[a]
			var axA, ayA, azA, duA float64
			for t := nl.PairOffsets[a]; t < nl.PairOffsets[a+1]; t++ {
				b := nl.PairIdx[t]
				dx, dy, dz, dist := nl.PairDx[t], nl.PairDy[t], nl.PairDz[t], nl.PairDist[t]
				hb := p.H[b]
				dwa := kdwa[t]
				dwb := kdwb[t]
				invr := 1 / (dist + 1e-30)
				ex, ey, ez := dx*invr, dy*invr, dz*invr
				dvx := p.VX[a] - p.VX[b]
				dvy := p.VY[a] - p.VY[b]
				dvz := p.VZ[a] - p.VZ[b]
				vdotr := dvx*dx + dvy*dy + dvz*dz
				var piij float64
				if vdotr < 0 {
					hij := 0.5 * (ha + hb)
					cij := 0.5 * (p.C[a] + p.C[b])
					rhoij := 0.5 * (p.Rho[a] + p.Rho[b])
					muij := hij * vdotr / (dist*dist + 0.01*hij*hij)
					alphaij := 0.5 * (p.Alpha[a] + p.Alpha[b])
					fij := 0.5 * (f[a] + f[b])
					piij = fij * alphaij * (-cij*muij + avBeta*muij*muij) / rhoij
				}
				gradA := prho[a] * dwa
				gradB := prho[b] * dwb
				avdw := piij * 0.5 * (dwa + dwb)
				bracket := gradA + gradB + avdw
				// vdotgrad and the bracket are invariant under swapping the
				// pair's sides (both dv and e flip sign), so one evaluation
				// serves both endpoints.
				vdotgrad := dvx*ex + dvy*ey + dvz*ez
				accA := p.M[b] * bracket
				axA -= accA * ex
				ayA -= accA * ey
				azA -= accA * ez
				duA += p.M[b] * (gradA + 0.5*avdw) * vdotgrad
				if nl.PairBoth[t] != 0 || dist >= 2*hb {
					accB := p.M[a] * bracket
					o := int(b) * 4
					acc[o] += accB * ex
					acc[o+1] += accB * ey
					acc[o+2] += accB * ez
					acc[o+3] += p.M[a] * (gradB + 0.5*avdw) * vdotgrad
				}
			}
			o := a * 4
			acc[o] += axA
			acc[o+1] += ayA
			acc[o+2] += azA
			acc[o+3] += duA
		}
	})
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * 4
			var ax, ay, az, du float64
			for _, b := range bufs {
				ax += b[o]
				ay += b[o+1]
				az += b[o+2]
				du += b[o+3]
			}
			p.AX[i] = ax
			p.AY[i] = ay
			p.AZ[i] = az
			p.DU[i] = du
		}
	})
}
