package neighbors

import (
	"math"
	"runtime"
	"testing"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

// The slab sweep's contract is exact: same candidate sets AND same
// within-row order as per-row ForEachNeighbor queries, for any grid the
// sweep accepts. The SPH layer leans on the order for first-ngmax
// truncation and checkpointed candidate regeneration, so these tests
// compare rows element for element, not as sets.

// walkCSR collects the reference candidate CSR — indices and distances —
// with one ForEachNeighbor query per row at that row's cut radius.
func walkCSR(g *Grid, cut []float64) (off, idx []int32, dist []float64) {
	n := len(cut)
	off = make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i] = int32(len(idx))
		g.ForEachNeighbor(i, cut[i], func(j int, _, _, _, d float64) {
			idx = append(idx, int32(j))
			dist = append(dist, d)
		})
	}
	off[n] = int32(len(idx))
	return off, idx, dist
}

// compareCSR holds the sweep's CSR to the walk's element for element —
// indices exactly, and sqrt of the emitted r2 bit-identical to the walk's
// distances (the SPH layer stores that sqrt in the neighbor list).
func compareCSR(t *testing.T, tag string, off, idx []int32, r2 []float64, woff, widx []int32, wdist []float64) {
	t.Helper()
	n := len(woff) - 1
	for i := 0; i <= n; i++ {
		if off[i] != woff[i] {
			t.Fatalf("%s: offsets[%d] = %d, walk has %d", tag, i, off[i], woff[i])
		}
	}
	for k := range widx {
		if idx[k] != widx[k] {
			// Locate the row for a readable failure.
			row := 0
			for int(woff[row+1]) <= k {
				row++
			}
			t.Fatalf("%s: idx[%d] (row %d, slot %d) = %d, walk has %d",
				tag, k, row, k-int(woff[row]), idx[k], widx[k])
		}
		if d := math.Sqrt(r2[k]); d != wdist[k] {
			t.Fatalf("%s: sqrt(r2[%d]) = %.17g, walk dist is %.17g", tag, k, d, wdist[k])
		}
	}
}

// jitteredPoints lays particles on a lattice and perturbs each by up to
// half a spacing, producing the clustered-but-regular distributions SPH
// actually runs on (and plenty of exactly-equal coordinates when the
// jitter is zeroed for a fraction of the points).
func jitteredPoints(box sfc.Box, side int, seed uint64) (x, y, z []float64) {
	r := rng.New(seed)
	n := side * side * side
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	dx, dy, dz := box.Lx()/float64(side), box.Ly()/float64(side), box.Lz()/float64(side)
	at := 0
	for k := 0; k < side; k++ {
		for j := 0; j < side; j++ {
			for i := 0; i < side; i++ {
				jit := 0.5
				if at%7 == 0 {
					jit = 0 // keep some particles exactly on lattice sites
				}
				x[at] = box.Xmin + (float64(i)+0.5+jit*(r.Float64()-0.5))*dx
				y[at] = box.Ymin + (float64(j)+0.5+jit*(r.Float64()-0.5))*dy
				z[at] = box.Zmin + (float64(k)+0.5+jit*(r.Float64()-0.5))*dz
				at++
			}
		}
	}
	return x, y, z
}

// mixedCuts draws per-particle cut radii in [0.3, 1.0]·rmax, with a few
// rows pinned to exactly rmax so the feasibility boundary itself is
// exercised.
func mixedCuts(n int, rmax float64, seed uint64) []float64 {
	r := rng.New(seed)
	cut := make([]float64, n)
	for i := range cut {
		cut[i] = rmax * (0.3 + 0.7*r.Float64())
		if i%97 == 0 {
			cut[i] = rmax
		}
	}
	return cut
}

func TestSlabGatherMatchesWalkFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rng.New(seed * 1000)
		// Randomized, possibly non-cubic, per-axis-periodic boxes.
		box := sfc.Box{
			Xmin: r.Float64() - 0.5,
			Ymin: r.Float64() - 0.5,
			Zmin: r.Float64() - 0.5,
			PBCx: r.Float64() < 0.5,
			PBCy: r.Float64() < 0.5,
			PBCz: r.Float64() < 0.5,
		}
		box.Xmax = box.Xmin + 0.8 + 0.5*r.Float64()
		box.Ymax = box.Ymin + 0.8 + 0.5*r.Float64()
		box.Zmax = box.Zmin + 0.8 + 0.5*r.Float64()

		var x, y, z []float64
		if seed%2 == 0 {
			x, y, z = jitteredPoints(box, 10+int(seed%3), seed)
		} else {
			x, y, z = randomPoints(box, 800+int(seed)*137, seed)
		}
		// 5-7 cells per shortest axis: wrapped blocks, non-periodic border
		// blocks and interior blocks all occur.
		minExt := box.Lx()
		if box.Ly() < minExt {
			minExt = box.Ly()
		}
		if box.Lz() < minExt {
			minExt = box.Lz()
		}
		rmax := minExt / (5 + float64(seed%3))
		cut := mixedCuts(len(x), rmax, seed+42)

		g := BuildGrid(box, x, y, z, rmax)
		var ss SlabSweep
		off, idx, r2, ok := ss.Gather(g, cut, nil, nil, nil)
		if !ok {
			t.Fatalf("seed %d: sweep rejected a feasible grid (%dx%dx%d)", seed, g.nx, g.ny, g.nz)
		}
		woff, widx, wdist := walkCSR(g, cut)
		compareCSR(t, "fresh", off, idx, r2, woff, widx, wdist)

		// Scratch reuse must not change anything.
		off, idx, r2, ok = ss.Gather(g, cut, off, idx, r2)
		if !ok {
			t.Fatalf("seed %d: reused sweep rejected the grid", seed)
		}
		compareCSR(t, "reused", off, idx, r2, woff, widx, wdist)
	}
}

// TestSlabGatherWorkerCountInvariant pins the determinism contract: the
// gathered CSR must be bit-identical for any GOMAXPROCS, because the
// per-(row, rank) bucket cursors make the fill order a pure function of
// the grid, not of the worker partition. n exceeds slabSerialMinN so the
// parallel sweep actually runs.
func TestSlabGatherWorkerCountInvariant(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	const n = slabSerialMinN + 4096
	x, y, z := randomPoints(box, n, 17)
	const rmax = 0.05
	cut := mixedCuts(n, rmax, 23)
	g := BuildGrid(box, x, y, z, rmax)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var serial SlabSweep
	soff, sidx, sr2, ok := serial.Gather(g, cut, nil, nil, nil)
	if !ok {
		t.Fatal("sweep rejected the serial-run grid")
	}
	sdist := make([]float64, len(sr2))
	for k, v := range sr2 {
		sdist[k] = math.Sqrt(v)
	}

	runtime.GOMAXPROCS(4)
	var parallel SlabSweep
	poff, pidx, pr2, ok := parallel.Gather(g, cut, nil, nil, nil)
	if !ok {
		t.Fatal("sweep rejected the parallel-run grid")
	}
	compareCSR(t, "gomaxprocs", poff, pidx, pr2, soff, sidx, sdist)
	if soff[n] == 0 {
		t.Fatal("no candidates gathered; test inputs are degenerate")
	}
}

// TestSlabGatherInfeasibleFallsBack: grids the width-1 half-stencil cannot
// cover must not be swept (swept=false), never silently mis-gathered, and
// the per-row fallback must still return the exact walk CSR.
func TestSlabGatherInfeasibleFallsBack(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, 500, 29)

	// Radius a third of the box: only 3 cells per axis.
	coarse := BuildGrid(box, x, y, z, 0.34)
	cut := mixedCuts(500, 0.34, 31)
	var ss SlabSweep
	off, idx, r2, ok := ss.Gather(coarse, cut, nil, nil, nil)
	if ok {
		t.Fatal("sweep accepted a 3-cell-per-axis grid")
	}
	woff, widx, wdist := walkCSR(coarse, cut)
	compareCSR(t, "coarse fallback", off, idx, r2, woff, widx, wdist)

	// Fine grid, but one cut exceeds the cell size: the stencil would miss
	// pairs two cells away.
	fine := BuildGrid(box, x, y, z, 0.1)
	cut = mixedCuts(500, 0.1, 37)
	cut[123] = 0.15
	off, idx, r2, ok = ss.Gather(fine, cut, off, idx, r2)
	if ok {
		t.Fatal("sweep accepted a cut wider than the cell size")
	}
	woff, widx, wdist = walkCSR(fine, cut)
	compareCSR(t, "wide-cut fallback", off, idx, r2, woff, widx, wdist)

	// Same grid with in-range cuts is swept and exact.
	cut[123] = 0.1
	off, idx, r2, ok = ss.Gather(fine, cut, off, idx, r2)
	if !ok {
		t.Fatal("sweep rejected a feasible grid")
	}
	woff, widx, wdist = walkCSR(fine, cut)
	compareCSR(t, "fine", off, idx, r2, woff, widx, wdist)
}
