package sph_test

// Neighbor-list construction tests: the production list — cell-slab
// gather, two-pass filter — must equal, row for row and bit for bit, the
// list per-row walk queries over the same grid produce, including the
// first-ngmax truncation; the pipeline built on it must track the
// closure-walk reference physics; and a checkpoint taken between SFC
// reorders must resume bit-identically.
//
// The sweep is only feasible once the grid has ≥4 cells per axis, so the
// very first build (large pre-adaptation smoothing lengths → coarse grid)
// may take the per-row fallback; the tests assert via SweptLastGather that
// the sweep really built the lists they check.

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/neighbors"
	"sphenergy/internal/sph"
)

// walkRows is the reference neighbor list of one FindNeighbors call,
// built with per-row ForEachNeighbor queries on the grid the call used:
// candidates at the 1.3-clamped support 2·1.3·h_old in walk order, the
// old-h count, and the first ngmax candidates within the new 2·h.
func walkRows(g *neighbors.Grid, hOld, hNew []float64, ngmax int) (off, idx, nc []int32, dist []float64) {
	n := len(hOld)
	off = make([]int32, n+1)
	nc = make([]int32, n)
	for i := 0; i < n; i++ {
		off[i] = int32(len(idx))
		kept := 0
		g.ForEachNeighbor(i, 2*1.3*hOld[i], func(j int, _, _, _, d float64) {
			if d < 2*hOld[i] {
				nc[i]++
			}
			if d < 2*hNew[i] && kept < ngmax {
				idx = append(idx, int32(j))
				dist = append(dist, d)
				kept++
			}
		})
	}
	off[n] = int32(len(idx))
	return off, idx, nc, dist
}

// checkAgainstWalkRows runs one FindNeighbors and holds its list to
// walkRows element for element. Returns whether the sweep built it.
func checkAgainstWalkRows(t *testing.T, st *sph.State) bool {
	t.Helper()
	hOld := append([]float64(nil), st.P.H...)
	st.FindNeighbors()
	nl := st.List
	off, idx, nc, dist := walkRows(st.Grid, hOld, st.P.H, nl.Ngmax)
	for i := range off {
		if nl.Offsets[i] != off[i] {
			t.Fatalf("step %d: Offsets[%d] = %d, walk has %d", st.Step, i, nl.Offsets[i], off[i])
		}
	}
	for k := range idx {
		if nl.Idx[k] != idx[k] || nl.Dist[k] != dist[k] {
			t.Fatalf("step %d: entry %d = (%d, %.17g), walk has (%d, %.17g)",
				st.Step, k, nl.Idx[k], nl.Dist[k], idx[k], dist[k])
		}
	}
	for i := range nc {
		if st.P.NC[i] != nc[i] {
			t.Fatalf("step %d: NC[%d] = %d, walk counts %d", st.Step, i, st.P.NC[i], nc[i])
		}
	}
	return st.SweptLastGather()
}

// TestCellSlabListIdenticalToWalkList compares the full CSR list — offsets,
// indices, distances — and the neighbor counts element for element against
// per-row walk queries on every step of a multi-step run with SFC reorders,
// so warm scratch reuse and index permutations are covered too.
func TestCellSlabListIdenticalToWalkList(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(16))
	opt.NgTarget = 32
	opt.ReorderEvery = 2
	st := sph.NewState(p, opt)
	swept := 0
	for s := 0; s < 6; s++ {
		if s > 0 && s%opt.ReorderEvery == 0 {
			st.ReorderBySFC()
		}
		if checkAgainstWalkRows(t, st) {
			swept++
		}
		st.XMass()
		st.NormalizationGradh()
		st.EquationOfState()
		st.IADVelocityDivCurl()
		st.AVSwitches(st.Dt)
		st.MomentumEnergy()
		st.UpdateQuantities(st.Timestep())
	}
	if swept == 0 {
		t.Fatal("the slab sweep never built a list; only the fallback was checked")
	}
}

// TestCellSlabBitIdenticalTurbulence: the sweep's scratch — SoA slabs,
// bucket counters, per-chunk spill buffers — and the list and scatter
// buffers are reused from step to step, so no build may leave anything
// behind that changes the next. A warm run carrying its scratch across
// steps must stay bit-identical to a cold run that is restarted from a
// checkpoint into a fresh State before every step, through SFC reorders
// and a smoothing-length ramp that coarsens the grid. It runs at a worker
// count whose aligned partitions are uneven and at one whose partitions
// run fewer chunks than workers, so spill buffers past the live chunks
// hold records of an earlier gather. 26³ particles put the gather above
// the sweep's serial threshold, so the per-chunk spills are in play.
func TestCellSlabBitIdenticalTurbulence(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	mk := func() *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(26))
		opt.NgTarget = 32
		opt.ReorderEvery = 2
		return sph.NewState(p, opt)
	}
	for _, procs := range []int{3, 32} {
		runtime.GOMAXPROCS(procs)
		warm, cold := mk(), mk()
		var cells []int
		swept := 0
		for s := 0; s < 6; s++ {
			var buf bytes.Buffer
			if err := cold.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if cold, err = sph.ReadCheckpoint(&buf, cold.Opt); err != nil {
				t.Fatal(err)
			}
			rampH(warm)
			rampH(cold)
			cells = append(cells, gridCells(warm))
			warm.RunStep(nil)
			cold.RunStep(nil)
			if warm.SweptLastGather() {
				swept++
			}
			assertBitIdentical(t, warm, cold)
		}
		t.Logf("GOMAXPROCS=%d: cells per axis %v, %d swept builds", procs, cells, swept)
		if swept == 0 {
			t.Fatalf("GOMAXPROCS=%d: the slab sweep never built a list; only the fallback was checked", procs)
		}
		coarsened := false
		for s := 1; s < len(cells); s++ {
			coarsened = coarsened || cells[s] < cells[s-1]
		}
		if !coarsened {
			t.Fatalf("GOMAXPROCS=%d: the ramp never coarsened the grid (cells per axis %v)", procs, cells)
		}
	}
}

// TestCellSlabNgmaxOverflowBitIdentical: first-ngmax truncation depends on
// candidate order, so an overflowing build is the sharpest probe of the
// slab sweep's order contract and of the filter's row sizing.
func TestCellSlabNgmaxOverflowBitIdentical(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(16))
	opt.NgTarget = 32
	opt.NgMax = 8
	st := sph.NewState(p, opt)
	if !checkAgainstWalkRows(t, st) {
		t.Fatal("slab sweep never engaged on the overflowing build")
	}
	if st.List.Overflow == 0 {
		t.Fatal("expected overflow with NgMax=8; the truncation path went untested")
	}
	over := 0
	for i := 0; i < st.P.N; i++ {
		if st.List.Count(i) == 8 && st.P.NC[i] > 8 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("no row was truncated at the cap")
	}
}

// compareCellSlabToWalk holds the production pipeline to the closure-walk
// reference physics over multi-step runs, with the slab sweep asserted to
// have built at least one of the lists.
func compareCellSlabToWalk(t *testing.T, mkState func() *sph.State, steps int, withGravity bool, tol float64) {
	t.Helper()

	walk := mkState()
	walk.Opt.ClosureWalk = true
	walk.Opt.ReorderEvery = 0
	prod := mkState()
	prod.Opt.ReorderEvery = 0

	var potW, potP []float64
	if withGravity {
		potW = make([]float64, walk.P.N)
		potP = make([]float64, prod.P.N)
	}
	swept := 0
	for s := 0; s < steps; s++ {
		stepManual(walk, withGravity, potW)
		stepManual(prod, withGravity, potP)
		if prod.SweptLastGather() {
			swept++
		}
	}
	if swept == 0 {
		t.Fatalf("slab sweep never engaged in %d steps", steps)
	}
	compareStates(t, "production-vs-walk", prod, walk, tol)
}

func TestCellSlabMatchesClosureWalkTurbulence(t *testing.T) {
	mk := func() *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(16))
		opt.NgTarget = 32
		return sph.NewState(p, opt)
	}
	compareCellSlabToWalk(t, mk, 8, false, 1e-9)
}

func TestCellSlabMatchesClosureWalkEvrard(t *testing.T) {
	mk := func() *sph.State {
		p, opt := initcond.Evrard(initcond.DefaultEvrard(10))
		opt.NgTarget = 32
		return sph.NewState(p, opt)
	}
	compareCellSlabToWalk(t, mk, 6, true, 1e-9)
}

// TestCellSlabCheckpointMidIntervalResume: a checkpoint taken between two
// SFC reorders must resume bit-identically — same reorder steps, same
// lists, same trajectory — because the reorder clock is checkpointed and
// the neighbor list is rebuilt from the particles on every step.
func TestCellSlabCheckpointMidIntervalResume(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(16))
	opt.NgTarget = 32
	opt.ReorderEvery = 3

	orig := sph.NewState(p, opt)
	const pre, post = 8, 5
	for s := 0; s < pre; s++ {
		orig.RunStep(nil)
	}
	if !orig.SweptLastGather() {
		t.Fatal("slab sweep not engaged at the checkpoint")
	}
	if since := orig.Step - orig.LastReorderStep; since == 0 || since >= opt.ReorderEvery {
		t.Fatalf("checkpoint is not mid-interval: step %d, last reorder %d", orig.Step, orig.LastReorderStep)
	}

	var buf bytes.Buffer
	if err := orig.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := sph.ReadCheckpoint(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.LastReorderStep != orig.LastReorderStep {
		t.Fatalf("reorder clock %d, want %d", resumed.LastReorderStep, orig.LastReorderStep)
	}
	for s := 0; s < post; s++ {
		orig.RunStep(nil)
		resumed.RunStep(nil)
		assertBitIdentical(t, orig, resumed)
	}
}

// assertBitIdentical fails unless two states hold the same trajectory
// down to the last bit.
func assertBitIdentical(t *testing.T, a, b *sph.State) {
	t.Helper()
	pa, pb := a.P, b.P
	for i := 0; i < pa.N; i++ {
		if pa.X[i] != pb.X[i] || pa.VX[i] != pb.VX[i] || pa.U[i] != pb.U[i] ||
			pa.H[i] != pb.H[i] || pa.NC[i] != pb.NC[i] ||
			math.Float64bits(pa.AX[i]) != math.Float64bits(pb.AX[i]) {
			t.Fatalf("step %d: particle %d diverged", a.Step, i)
		}
	}
	if a.Dt != b.Dt || a.Time != b.Time || a.LastReorderStep != b.LastReorderStep {
		t.Fatalf("step %d: clocks diverged: dt %.17g vs %.17g, reorder %d vs %d",
			a.Step, a.Dt, b.Dt, a.LastReorderStep, b.LastReorderStep)
	}
}
