package neighbors

import "sphenergy/internal/par"

// Cell-slab candidate sweep with a folded half-sphere gather.
//
// ForEachNeighbor answers one query at a time: for every particle it walks
// the 27-cell stencil and evaluates every resident of every cell, so each
// unordered pair (i, j) is examined twice — once from each endpoint. The
// slab sweep instead traverses the grid cell by cell and visits each
// unordered pair exactly once: for every cell it evaluates the intra-cell
// upper triangle plus the 13 "forward" stencil cells (the half with
// lexicographically positive offset), and a single distance evaluation
// decides membership in both directions of the asymmetric per-particle cut
// (r² < cut[i]² admits j into i's row, r² < cut[j]² admits i into j's row).
// Cell contents are pre-gathered into contiguous SoA slabs in grid storage
// order, so the inner distance kernel is a branch-light unrolled loop over
// dense slices instead of a pointer-chasing indexed gather.
//
// The output is a candidate CSR (offsets + neighbor indices) that is
// bit-identical — same pair sets, same within-row order — to what per-row
// ForEachNeighbor queries at radius cut[i] would emit, for any worker
// count. Row order equality is what lets the SPH layer keep its
// first-ngmax truncation and its 1e-9 equivalence to the closure walk: the
// walk emits row i's neighbors grouped by stencil cell in rank order
// (rank = (dz+1)·9+(dy+1)·3+(dx+1), ascending) and ascending within each
// cell, and the sweep reproduces exactly that via per-(row, rank) bucket
// cursors. Each bucket is written by exactly one cell-pair block, each
// block is owned by exactly one worker, and records within a block arrive
// in ascending index order, so the fill is deterministic and race-free
// without atomics.

// slabRank is the number of stencil ranks per row (3³ cells); rank 13 is
// the row's own cell, ranks 14..26 the forward half, 0..12 the mirror.
const slabRanks = 27

// slabSerialMinN is the particle count below which the sweep runs on the
// calling goroutine only: spawning workers costs more than the scan, and a
// serial sweep keeps steady-state gathers allocation-free for the
// zero-alloc regression tests (goroutine spawns allocate).
const slabSerialMinN = 1 << 14

// slabRun marks one cell-pair block inside a worker's spill buffer: the
// records [start, next run's start) were emitted while scanning a single
// (cell, stencil-offset) block whose forward rank is rA and mirror rank rB.
type slabRun struct {
	start  int32
	rA, rB uint8
}

// slabRec is one admitted unordered pair: the home-cell endpoint pi, the
// forward-cell endpoint packed with the direction mask in pjf (low 30 bits:
// pj; bit 30: pj belongs in pi's row; bit 31: pi belongs in pj's row), and
// the squared distance (exactly symmetric, so one value serves both
// directions). One 16-byte record per pair keeps the admit path to a
// single append and the replay to a single sequential stream.
type slabRec struct {
	pi  int32
	pjf uint32
	r2  float64
}

const (
	slabIdxMask = 1<<30 - 1
	slabFlagI   = uint32(1) << 30
	slabFlagJ   = uint32(1) << 31
)

// slabSpill is one worker's pair-record buffer.
type slabSpill struct {
	recs []slabRec
	runs []slabRun
}

func (sp *slabSpill) reset() {
	sp.recs = sp.recs[:0]
	sp.runs = sp.runs[:0]
}

func (sp *slabSpill) beginRun(rA, rB uint8) {
	sp.runs = append(sp.runs, slabRun{start: int32(len(sp.recs)), rA: rA, rB: rB})
}

// SlabSweep holds the reusable scratch of the cell-slab candidate gather;
// steady-state Gather calls (same particle count, same grid resolution)
// perform no allocations. The zero value is ready to use.
type SlabSweep struct {
	ox, oy, oz []float64 // particle coordinates in grid storage order
	ocut2      []float64 // squared per-particle cut, grid storage order
	cellMax2   []float64 // per-cell maximum squared cut (j-side prune bound)
	cnt        []int32   // slabRanks per-row bucket counts, then fill cursors
	spills     []*slabSpill
}

// slabFeasible reports whether the grid geometry admits the width-1
// half-stencil sweep: at least 4 cells per axis (so the 27-cell window is
// strictly narrower than every axis, offsets address distinct cells, and
// same-cell / adjacent-cell displacements never need a minimum-image fold)
// and every cut within one cell size (so the width-1 stencil covers every
// admissible pair, like the walk's scanWidth == 1 case).
func slabFeasible(g *Grid, maxCut float64) bool {
	if g.nx < 4 || g.ny < 4 || g.nz < 4 {
		return false
	}
	minCell := g.cellSize[0]
	if g.cellSize[1] < minCell {
		minCell = g.cellSize[1]
	}
	if g.cellSize[2] < minCell {
		minCell = g.cellSize[2]
	}
	return maxCut <= minCell
}

// Gather computes, for every particle i, the candidate set
// {j != i : |minimum-image(x_i - x_j)| ² < cut[i]²} over the given grid as
// a CSR (offsets of length n+1, neighbor indices, squared distances). The
// emitted r2 values equal exactly what the walk computes for the same
// pairs, so callers can derive bit-identical distances (math.Sqrt(r2))
// without re-evaluating displacements. offsets, idx and r2 are reused when
// large enough; the (possibly grown) slices are returned.
//
// Gather always produces the full CSR. When the grid geometry admits the
// sweep it visits each unordered pair once and swept is true; otherwise
// (fewer than 4 cells on an axis, or some cut exceeding the cell size) it
// runs one ForEachNeighbor query per row, which emits the identical CSR,
// and swept is false.
func (ss *SlabSweep) Gather(g *Grid, cut []float64, offsets, idx []int32, r2 []float64) (offOut, idxOut []int32, r2Out []float64, swept bool) {
	n := len(g.x)
	if n != len(cut) {
		panic("neighbors: cut length mismatch")
	}
	maxCut := 0.0
	for _, c := range cut {
		if c > maxCut {
			maxCut = c
		}
	}
	// Particle indices share the spill record's pjf word with the two
	// direction bits, so populations beyond 2³⁰ take the row fallback.
	if !slabFeasible(g, maxCut) || n > slabIdxMask {
		offsets, idx, r2 = gatherRows(g, cut, offsets, idx, r2)
		return offsets, idx, r2, false
	}
	ncells := g.nx * g.ny * g.nz

	workers := par.MaxWorkers()
	if n < slabSerialMinN {
		workers = 1
	}
	for len(ss.spills) < workers {
		ss.spills = append(ss.spills, &slabSpill{})
	}

	// Phase 0: gather coordinates and squared cuts into grid storage order
	// (one contiguous SoA slab per cell) and record each cell's maximum
	// squared cut for the j-side prune bound.
	ss.ox = growF64(ss.ox, n)
	ss.oy = growF64(ss.oy, n)
	ss.oz = growF64(ss.oz, n)
	ss.ocut2 = growF64(ss.ocut2, n)
	ss.cellMax2 = growF64(ss.cellMax2, ncells)
	ss.cnt = growInt32(ss.cnt, slabRanks*n)
	// Every row's bucket counters are zeroed in one memclr up front; the
	// per-cell SoA pass no longer touches them, which keeps its stores
	// sequential.
	clear(ss.cnt)
	// live is the number of spill buffers the scan wrote this call; only
	// those are replayed. The aligned partition can run fewer chunks than
	// workers, so a buffer past live may hold a previous gather's records.
	live := 1
	if workers == 1 {
		// Serial fast path: direct calls, no closures — steady-state
		// gathers stay allocation-free (closures passed to ForWorkers
		// escape to the heap).
		ss.soaCells(g, cut, 0, ncells)
		ss.scanCells(g, 0, 0, ncells)
	} else {
		par.ForWorkers(ncells, workers, func(_, clo, chi int) {
			ss.soaCells(g, cut, clo, chi)
		})
		// Phase 1: folded half-stencil scan. Each chunk owns a contiguous
		// cell range; a (cell, forward-offset) block is processed by
		// exactly one chunk, which is what makes every (row, rank) bucket
		// single-writer.
		live = par.ForWorkers(ncells, workers, func(w, clo, chi int) {
			ss.scanCells(g, w, clo, chi)
		})
	}

	// Prefix: row totals become offsets, per-(row, rank) counts become the
	// exclusive fill cursors of the bucket layout.
	offsets = growInt32(offsets, n+1)
	off := int32(0)
	for i := 0; i < n; i++ {
		offsets[i] = off
		base := slabRanks * i
		for r := 0; r < slabRanks; r++ {
			c := ss.cnt[base+r]
			ss.cnt[base+r] = off
			off += c
		}
	}
	offsets[n] = off
	idx = growInt32(idx, int(off))
	r2 = growF64(r2, int(off))

	// Phase 2: deterministic fill. Spills replay in emission order; buckets
	// are disjoint across spills, so this parallelizes without atomics and
	// the result is independent of the worker count.
	if live == 1 {
		ss.fillSpill(ss.spills[0], idx, r2)
	} else {
		par.ForWorkers(live, live, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				ss.fillSpill(ss.spills[s], idx, r2)
			}
		})
	}
	return offsets, idx, r2, true
}

// gatherRows is Gather's fallback for grids the sweep cannot take: one
// ForEachNeighbor query per row, counted first and then filled, so rows
// are written in place without appends. r² is recomputed from the
// displacement the query passes, the same arithmetic the query admits by.
func gatherRows(g *Grid, cut []float64, offsets, idx []int32, r2 []float64) ([]int32, []int32, []float64) {
	n := len(cut)
	offsets = growInt32(offsets, n+1)
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			offsets[i+1] = int32(g.CountNeighbors(i, cut[i]))
		}
	})
	offsets[0] = 0
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	idx = growInt32(idx, int(offsets[n]))
	r2 = growF64(r2, int(offsets[n]))
	par.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := offsets[i]
			g.ForEachNeighbor(i, cut[i], func(j int, dx, dy, dz, _ float64) {
				idx[k] = int32(j)
				r2[k] = dx*dx + dy*dy + dz*dz
				k++
			})
		}
	})
	return offsets, idx, r2
}

// soaCells runs Phase 0 over the cell range [clo, chi): gather coordinates
// and squared cuts into grid storage order and record each cell's maximum
// squared cut.
func (ss *SlabSweep) soaCells(g *Grid, cut []float64, clo, chi int) {
	for c := clo; c < chi; c++ {
		m2 := 0.0
		for k := g.cellOff[c]; k < g.cellOff[c+1]; k++ {
			p := g.order[k]
			ss.ox[k] = g.x[p]
			ss.oy[k] = g.y[p]
			ss.oz[k] = g.z[p]
			c2 := cut[p] * cut[p]
			ss.ocut2[k] = c2
			if c2 > m2 {
				m2 = c2
			}
		}
		ss.cellMax2[c] = m2
	}
}

// scanCells evaluates every unordered pair whose home (lower-ranked) cell
// lies in [clo, chi): the intra-cell upper triangle and the 13 forward
// stencil blocks per cell. A single r² per pair feeds both directed
// membership tests; admitted pairs are spilled with their direction mask
// and counted into the per-(row, rank) buckets.
func (ss *SlabSweep) scanCells(g *Grid, w, clo, chi int) {
	sp := ss.spills[w]
	sp.reset()
	nx, ny, nz := g.nx, g.ny, g.nz
	lx, ly, lz := g.box.Lx(), g.box.Ly(), g.box.Lz()
	hx, hy, hz := lx/2, ly/2, lz/2
	pbx, pby, pbz := g.box.PBCx, g.box.PBCy, g.box.PBCz
	cellOff, order := g.cellOff, g.order
	ox, oy, oz, ocut2 := ss.ox, ss.oy, ss.oz, ss.ocut2
	cnt := ss.cnt
	xmin, ymin, zmin := g.box.Xmin, g.box.Ymin, g.box.Zmin
	cellX, cellY, cellZ := g.cellSize[0], g.cellSize[1], g.cellSize[2]

	for c := clo; c < chi; c++ {
		aLo, aHi := int(cellOff[c]), int(cellOff[c+1])
		if aLo == aHi {
			continue
		}
		cx := c % nx
		cy := (c / nx) % ny
		cz := c / (nx * ny)
		// Cell edge coordinates, in axisScan's exact arithmetic; the prune
		// below measures particle-to-slab distances against them.
		loX := xmin + float64(cx)*cellX
		hiX := xmin + float64(cx+1)*cellX
		loY := ymin + float64(cy)*cellY
		hiY := ymin + float64(cy+1)*cellY
		loZ := zmin + float64(cz)*cellZ
		hiZ := zmin + float64(cz+1)*cellZ

		// Intra-cell upper triangle: same-cell displacements can never wrap
		// (cells are at most a quarter axis wide), so the minimum-image fold
		// is a proven no-op and is skipped.
		sp.beginRun(13, 13)
		cellSelf2 := ss.cellMax2[c]
		ax := ox[aLo:aHi]
		ay := oy[aLo:aHi]
		az := oz[aLo:aHi]
		acut := ocut2[aLo:aHi]
		aord := order[aLo:aHi]
		na := aHi - aLo
		for a := 0; a < na; a++ {
			xi, yi, zi, c2i := ax[a], ay[a], az[a], acut[a]
			ia := aord[a]
			baseI := slabRanks * int(ia)
			cMax := c2i
			if cellSelf2 > cMax {
				cMax = cellSelf2
			}
			nI := int32(0)
			for b := a + 1; b < na; b++ {
				dx := xi - ax[b]
				dy := yi - ay[b]
				dz := zi - az[b]
				r2 := dx*dx + dy*dy + dz*dz
				if r2 < cMax {
					pjf := uint32(aord[b])
					if r2 < c2i {
						pjf |= slabFlagI
						nI++
					}
					if r2 < acut[b] {
						pjf |= slabFlagJ
						cnt[slabRanks*int(aord[b])+13]++
					}
					if pjf > slabIdxMask {
						sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r2})
					}
				}
			}
			cnt[baseI+13] += nI
		}

		// Forward half stencil: ranks 14..26, offsets (dx, dy, dz) with
		// rank = (dz+1)·9+(dy+1)·3+(dx+1). The mirror rank 26-r is where the
		// reverse direction lands in the forward cell's rows.
		for r := 14; r <= 26; r++ {
			dxc := r%3 - 1
			dyc := r/3%3 - 1
			dzc := r/9 - 1
			bx := wrapCell(cx+dxc, nx, pbx)
			if bx < 0 {
				continue
			}
			by := wrapCell(cy+dyc, ny, pby)
			if by < 0 {
				continue
			}
			bz := wrapCell(cz+dzc, nz, pbz)
			if bz < 0 {
				continue
			}
			bc := g.cellIndex(bx, by, bz)
			bLo, bHi := int(cellOff[bc]), int(cellOff[bc+1])
			if bLo == bHi {
				continue
			}
			// Adjacent unwrapped cells never need the fold. For a wrapped
			// axis with at least 5 cells the fold is provably ALWAYS taken
			// and in a fixed direction: home and forward cell sit on
			// opposite box edges, so |xi - xj| > L - 2·cell ≥ 3L/5 > L/2
			// with margin far beyond any cell-assignment rounding, and the
			// walk's branchy fold reduces to adding a per-block constant
			// shift (same two-operation arithmetic, bit-identical result).
			// That lets wrapped blocks share the unrolled kernel; only a
			// wrapped axis with exactly 4 cells — where the margin is zero
			// and rounding could flip the strict inequality — takes the
			// walk's per-pair branchy fold verbatim.
			var shX, shY, shZ float64
			branchy := false
			if bx != cx+dxc {
				if nx < 5 {
					branchy = true
				}
				if dxc > 0 {
					shX = -lx
				} else {
					shX = lx
				}
			}
			if by != cy+dyc {
				if ny < 5 {
					branchy = true
				}
				if dyc > 0 {
					shY = -ly
				} else {
					shY = ly
				}
			}
			if bz != cz+dzc {
				if nz < 5 {
					branchy = true
				}
				if dzc > 0 {
					shZ = -lz
				} else {
					shZ = lz
				}
			}
			cellB2 := ss.cellMax2[bc] * (1 + 0x1p-40)
			rB := uint8(26 - r)
			sp.beginRun(uint8(r), rB)
			nb := bHi - bLo
			sx := ox[bLo:bHi]
			sy := oy[bLo:bHi]
			sz := oz[bLo:bHi]
			scut := ocut2[bLo:bHi]
			sord := order[bLo:bHi]
			cellM2 := ss.cellMax2[bc]
			for a := 0; a < na; a++ {
				xi, yi, zi, c2i := ax[a], ay[a], az[a], acut[a]
				// cMax screens both directed tests with one register
				// compare: r² at or beyond max(cut_i², max_j cut_j²) can
				// admit in neither direction, so the failing 80+% of
				// evaluations never load the per-particle cut slab.
				cMax := c2i
				if cellM2 > cMax {
					cMax = cellM2
				}
				// Per-particle slab-distance prune: if the nearest point of
				// cell B (unwrapped axis distances, valid minimum-image
				// lower bounds because the window is narrower than the
				// axis) is beyond both directed cut bounds, no pair with
				// this particle can be admitted. The 2⁻⁴⁰ widening mirrors
				// ForEachNeighbor's, so rounding never drops a true pair.
				var sdx, sdy, sdz float64
				if dxc > 0 {
					sdx = hiX - xi
				} else if dxc < 0 {
					sdx = xi - loX
				}
				if dyc > 0 {
					sdy = hiY - yi
				} else if dyc < 0 {
					sdy = yi - loY
				}
				if dzc > 0 {
					sdz = hiZ - zi
				} else if dzc < 0 {
					sdz = zi - loZ
				}
				if sdx < 0 {
					sdx = 0
				}
				if sdy < 0 {
					sdy = 0
				}
				if sdz < 0 {
					sdz = 0
				}
				d2 := sdx*sdx + sdy*sdy + sdz*sdz
				prune := cellB2
				if p2 := c2i * (1 + 0x1p-40); p2 > prune {
					prune = p2
				}
				if d2 > prune {
					continue
				}
				ia := aord[a]
				// Fused distance-and-compact kernel: the 4-wide unrolled
				// block computes four r² in registers, then each feeds both
				// directed membership tests immediately — no scratch-array
				// round trip between a compute pass and a compare pass. One
				// evaluation decides both directions; r² is exactly symmetric
				// (IEEE negation), so the j-side test equals what j's own
				// walk query would compute.
				nI := int32(0)
				if !branchy {
					k := 0
					for ; k+4 <= nb; k += 4 {
						dx0 := xi - sx[k] + shX
						dy0 := yi - sy[k] + shY
						dz0 := zi - sz[k] + shZ
						dx1 := xi - sx[k+1] + shX
						dy1 := yi - sy[k+1] + shY
						dz1 := zi - sz[k+1] + shZ
						dx2 := xi - sx[k+2] + shX
						dy2 := yi - sy[k+2] + shY
						dz2 := zi - sz[k+2] + shZ
						dx3 := xi - sx[k+3] + shX
						dy3 := yi - sy[k+3] + shY
						dz3 := zi - sz[k+3] + shZ
						r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
						r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
						r22 := dx2*dx2 + dy2*dy2 + dz2*dz2
						r23 := dx3*dx3 + dy3*dy3 + dz3*dz3
						if r20 < cMax {
							pjf := uint32(sord[k])
							if r20 < c2i {
								pjf |= slabFlagI
								nI++
							}
							if r20 < scut[k] {
								pjf |= slabFlagJ
								cnt[slabRanks*int(sord[k])+int(rB)]++
							}
							if pjf > slabIdxMask {
								sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r20})
							}
						}
						if r21 < cMax {
							pjf := uint32(sord[k+1])
							if r21 < c2i {
								pjf |= slabFlagI
								nI++
							}
							if r21 < scut[k+1] {
								pjf |= slabFlagJ
								cnt[slabRanks*int(sord[k+1])+int(rB)]++
							}
							if pjf > slabIdxMask {
								sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r21})
							}
						}
						if r22 < cMax {
							pjf := uint32(sord[k+2])
							if r22 < c2i {
								pjf |= slabFlagI
								nI++
							}
							if r22 < scut[k+2] {
								pjf |= slabFlagJ
								cnt[slabRanks*int(sord[k+2])+int(rB)]++
							}
							if pjf > slabIdxMask {
								sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r22})
							}
						}
						if r23 < cMax {
							pjf := uint32(sord[k+3])
							if r23 < c2i {
								pjf |= slabFlagI
								nI++
							}
							if r23 < scut[k+3] {
								pjf |= slabFlagJ
								cnt[slabRanks*int(sord[k+3])+int(rB)]++
							}
							if pjf > slabIdxMask {
								sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r23})
							}
						}
					}
					for ; k < nb; k++ {
						dx := xi - sx[k] + shX
						dy := yi - sy[k] + shY
						dz := zi - sz[k] + shZ
						r2 := dx*dx + dy*dy + dz*dz
						if r2 < cMax {
							pjf := uint32(sord[k])
							if r2 < c2i {
								pjf |= slabFlagI
								nI++
							}
							if r2 < scut[k] {
								pjf |= slabFlagJ
								cnt[slabRanks*int(sord[k])+int(rB)]++
							}
							if pjf > slabIdxMask {
								sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r2})
							}
						}
					}
				} else {
					for k := 0; k < nb; k++ {
						dx := xi - sx[k]
						if pbx {
							if dx > hx {
								dx -= lx
							} else if dx < -hx {
								dx += lx
							}
						}
						dy := yi - sy[k]
						if pby {
							if dy > hy {
								dy -= ly
							} else if dy < -hy {
								dy += ly
							}
						}
						dz := zi - sz[k]
						if pbz {
							if dz > hz {
								dz -= lz
							} else if dz < -hz {
								dz += lz
							}
						}
						r2 := dx*dx + dy*dy + dz*dz
						if r2 < cMax {
							pjf := uint32(sord[k])
							if r2 < c2i {
								pjf |= slabFlagI
								nI++
							}
							if r2 < scut[k] {
								pjf |= slabFlagJ
								cnt[slabRanks*int(sord[k])+int(rB)]++
							}
							if pjf > slabIdxMask {
								sp.recs = append(sp.recs, slabRec{pi: ia, pjf: pjf, r2: r2})
							}
						}
					}
				}
				cnt[slabRanks*int(ia)+r] += nI
			}
		}
	}
}

// fillSpill replays one worker's pair records in emission order, placing
// each admitted direction at its row's bucket cursor. Within a bucket,
// emission order is ascending neighbor index (the scan's loop order), so
// the finished rows match the walk's within-rank order exactly.
func (ss *SlabSweep) fillSpill(sp *slabSpill, idx []int32, r2 []float64) {
	cnt := ss.cnt
	for t := range sp.runs {
		run := sp.runs[t]
		end := len(sp.recs)
		if t+1 < len(sp.runs) {
			end = int(sp.runs[t+1].start)
		}
		rA, rB := int(run.rA), int(run.rB)
		for k := int(run.start); k < end; k++ {
			rec := sp.recs[k]
			j := int32(rec.pjf & slabIdxMask)
			d2 := rec.r2
			if rec.pjf&slabFlagI != 0 {
				p := cnt[slabRanks*int(rec.pi)+rA]
				idx[p] = j
				r2[p] = d2
				cnt[slabRanks*int(rec.pi)+rA] = p + 1
			}
			if rec.pjf&slabFlagJ != 0 {
				p := cnt[slabRanks*int(j)+rB]
				idx[p] = rec.pi
				r2[p] = d2
				cnt[slabRanks*int(j)+rB] = p + 1
			}
		}
	}
}

// growF64 resizes s to n entries, reallocating only on capacity growth.
// Contents are unspecified; callers overwrite as needed.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
