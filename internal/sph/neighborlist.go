package sph

import (
	"math"
	"time"

	"sphenergy/internal/par"
)

// hGrowthCap bounds per-step smoothing-length growth (the 1.3 clamp of the
// h update). The neighbor grid and the candidate-gather radius are sized
// for it, so one gather covers both the old-h neighbor count and the
// post-update support.
const hGrowthCap = 1.3

// NeighborList is the per-step neighbor structure of the SPH pipeline,
// rebuilt by every FindNeighbors in three streaming phases:
//
//  1. Gather: neighbors.SlabSweep emits the candidate CSR — every j within
//     2·hGrowthCap·h_old of i, with its squared distance — visiting each
//     unordered pair once (grids the sweep cannot take are gathered by
//     per-row walk queries, which emit the identical CSR).
//  2. Filter: two passes over the candidate r² count the neighbors at
//     2·h_old, update h, size each row at 2·h_new capped at Ngmax, and —
//     after a prefix sum — fill Offsets/Idx/Dist in place.
//  3. Fold: buildPairs folds the rows into the symmetric pair list the
//     XMass, NormalizationGradh, IADVelocityDivCurl and MomentumEnergy
//     passes stream over.
//
// Candidate order equals the closure walk's grid traversal order, so the
// rows, the first-Ngmax truncation and the stored distances are
// bit-identical to a per-row walk over the same grid.
type NeighborList struct {
	// Offsets has length N+1; the neighbors of particle i — every j != i
	// with |x_i - x_j| < 2*h_i after the step's smoothing-length update,
	// the first Ngmax of them in candidate order — occupy entries
	// [Offsets[i], Offsets[i+1]) of Idx and Dist. Dist holds the
	// minimum-image distance.
	Offsets []int32
	Idx     []int32
	Dist    []float64

	// Ngmax is the per-particle capacity cap (SPH-EXA's ngmax); Overflow
	// counts how many particles had their neighbor set truncated at the
	// cap during the last build.
	Ngmax    int
	Overflow int

	// CandOffsets/CandIdx are the step's gathered candidate CSR in the
	// same layout as the main list, and candR2 their squared distances;
	// the filter reads them and the next build reuses the buffers.
	CandOffsets []int32
	CandIdx     []int32
	candR2      []float64

	// Pair* is the folded symmetric pair list: every unordered interacting
	// pair {a, b} appears exactly once, in the segment
	// [PairOffsets[a], PairOffsets[a+1]) of the endpoint a that owns it —
	// the smaller index when both directed edges exist, the only endpoint
	// whose support covers the pair otherwise. PairIdx holds the other
	// endpoint, PairDx/Dy/Dz the owner-side minimum-image displacement
	// x_owner - x_other (the walk's arithmetic, bit for bit), PairDist the
	// distance, and PairBoth is 1 when the reverse directed edge also
	// exists in the main list. Records inherit the owner's row order, so
	// the scatter targets of consecutive pairs stay cache-adjacent under
	// SFC ordering.
	PairOffsets []int32
	PairIdx     []int32
	PairBoth    []uint8
	PairDx      []float64
	PairDy      []float64
	PairDz      []float64
	PairDist    []float64

	pairCnt  []int32 // scratch: per-owner folded pair count
	pairDisp []uint8 // scratch: per-edge pair disposition
}

// Count returns the stored neighbor count of particle i.
func (nl *NeighborList) Count(i int) int {
	return int(nl.Offsets[i+1] - nl.Offsets[i])
}

func ensureInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func ensureF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func ensureU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// updateH applies the n^(1/3) smoothing-length iteration toward the target
// neighbor count, clamped to ±30% per step and bounded relative to the
// pre-update global maximum so the search grid stays valid for this step.
func updateH(h float64, n int, ng, maxH float64) float64 {
	c := math.Cbrt(ng / float64(n+1))
	nh := 0.5 * h * (1 + c)
	if nh > hGrowthCap*h {
		nh = hGrowthCap * h
	}
	if nh < 0.7*h {
		nh = 0.7 * h
	}
	if nh > maxH*hGrowthCap {
		nh = maxH * hGrowthCap
	}
	return nh
}

// countWithin counts the entries of row with math.Sqrt(r2) < bound, the
// walk's admission test on the stored distance, without taking square
// roots: away from the rounding band around bound², r2 < bound² decides
// it (see admit).
func countWithin(row []float64, bound float64) int {
	b2 := bound * bound
	band := b2 * 0x1p-38
	n := 0
	for _, r2 := range row {
		n += admit(r2, bound, b2, band)
	}
	return n
}

// admit returns 1 when math.Sqrt(r2) < bound and 0 otherwise, given b2 =
// bound² and band = b2·2⁻³⁸. Outside the band r2 < b2 gives the same
// answer: r2 - b2 is exact there (Sterbenz) and a 2⁻³⁸ relative margin
// dwarfs the half-ulp errors of b2 and of the rounded root. Written as a
// flag rather than a branch because about half of all candidates are
// admitted, which no branch predictor guesses; the band branch is almost
// never taken.
func admit(r2, bound, b2, band float64) int {
	in := 0
	if r2 < b2 {
		in = 1
	}
	if math.Abs(r2-b2) < band {
		in = 0
		if math.Sqrt(r2) < bound {
			in = 1
		}
	}
	return in
}

// buildNeighborList rebuilds the neighbor list from scratch: gather the
// candidates at the maximum post-update support 2·hGrowthCap·h_old, filter
// them into the rows (updating h and NC on the way, matching the
// closure-walk pipeline), then fold the rows into the pair list. Returns
// the post-update maximum smoothing length, folded as a reduction so no
// extra O(n) scan is needed.
func (s *State) buildNeighborList(maxH float64) float64 {
	p := s.P
	n := p.N
	if s.nl == nil {
		s.nl = &NeighborList{}
	}
	nl := s.nl
	s.List = nl
	nl.Ngmax = s.Opt.ngmax()

	t0 := time.Now()
	s.cuts = ensureF64(s.cuts, n)
	for i := 0; i < n; i++ {
		s.cuts[i] = 2 * hGrowthCap * p.H[i]
	}
	nl.CandOffsets, nl.CandIdx, nl.candR2, _ = s.slab.Gather(s.Grid, s.cuts, nl.CandOffsets, nl.CandIdx, nl.candR2)
	t1 := time.Now()
	newMax := s.filterCandidates(maxH)
	s.NbrStats.GatherSeconds += t1.Sub(t0).Seconds()
	s.NbrStats.FilterSeconds += time.Since(t1).Seconds()
	s.buildPairs()
	return newMax
}

// filterCandidates turns the gathered candidate CSR into the main rows in
// two passes over the candidate r², writing straight into Offsets, Idx
// and Dist. The first pass counts each particle's neighbors at 2·h_old
// (recorded in NC), applies the smoothing-length update and counts the
// candidates inside the new support 2·h; a serial prefix sum caps every
// row at Ngmax and lays out the offsets; the second pass fills each row
// with its first admitted candidates in candidate order. Returns the
// post-update maximum smoothing length.
func (s *State) filterCandidates(maxH float64) float64 {
	p := s.P
	n := p.N
	nl := s.nl
	ng := float64(s.Opt.NgTarget)
	cOff, cIdx, cR2 := nl.CandOffsets, nl.CandIdx, nl.candR2
	nl.Offsets = ensureInt32(nl.Offsets, n+1)
	off := nl.Offsets

	newMax := par.Reduce(n, func(lo, hi int) float64 {
		localMax := 0.0
		for i := lo; i < hi; i++ {
			row := cR2[cOff[i]:cOff[i+1]]
			hOld := p.H[i]
			cnt := countWithin(row, 2*hOld)
			p.NC[i] = int32(cnt)
			h := updateH(hOld, cnt, ng, maxH)
			p.H[i] = h
			off[i+1] = int32(countWithin(row, 2*h)) // row length before the cap; the prefix sum caps it
			if h > localMax {
				localMax = h
			}
		}
		return localMax
	}, math.Max)

	ngmax := int32(nl.Ngmax)
	nl.Overflow = 0
	off[0] = 0
	for i := 0; i < n; i++ {
		m := off[i+1]
		if m > ngmax {
			m = ngmax
			nl.Overflow++
		}
		off[i+1] = off[i] + m
	}

	nl.Idx = ensureInt32(nl.Idx, int(off[n]))
	nl.Dist = ensureF64(nl.Dist, int(off[n]))
	idx, dist := nl.Idx, nl.Dist
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w, end := off[i], off[i+1]
			bound := 2 * p.H[i]
			b2 := bound * bound
			band := b2 * 0x1p-38
			cand := cIdx[cOff[i]:cOff[i+1]]
			row := cR2[cOff[i] : cOff[i]+int32(len(cand))]
			// Every candidate is written at the cursor, which advances
			// only past admitted ones: a rejected entry is overwritten by
			// the next admitted one, and the loop stops once the row is
			// full, so nothing is written past its end.
			for k, r2 := range row {
				if w == end {
					break
				}
				idx[w] = cand[k]
				dist[w] = math.Sqrt(r2)
				w += int32(admit(r2, bound, b2, band))
			}
		}
	})
	return newMax
}
