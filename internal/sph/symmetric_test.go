package sph_test

// Structure and allocation tests for the folded symmetric pair list: the
// pair records must cover every interaction of the main rows exactly once
// (with and without ngmax truncation), and the steady-state step must not
// allocate per particle or per pair.

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// runSym advances a fresh state through the full pipeline for the given
// number of steps and returns it.
func runSym(t *testing.T, mk func() *sph.State, steps int, withGravity bool) *sph.State {
	t.Helper()
	st := mk()
	var pot []float64
	if withGravity {
		pot = make([]float64, st.P.N)
	}
	for s := 0; s < steps; s++ {
		stepManual(st, withGravity, pot)
	}
	return st
}

// compareStates asserts the physics fields of two pipeline variants agree
// within tol after identical trajectories.
func compareStates(t *testing.T, label string, a, b *sph.State, tol float64) {
	t.Helper()
	pa, pb := a.P, b.P
	for i := range pa.NC {
		if pa.NC[i] != pb.NC[i] {
			t.Fatalf("%s: particle %d neighbor count %d != %d", label, i, pa.NC[i], pb.NC[i])
		}
	}
	fields := []struct {
		name string
		x, y []float64
	}{
		{"rho", pa.Rho, pb.Rho},
		{"gradh", pa.Gradh, pb.Gradh},
		{"divv", pa.DivV, pb.DivV},
		{"curlv", pa.CurlV, pb.CurlV},
		{"u", pa.U, pb.U},
		{"h", pa.H, pb.H},
		{"ax", pa.AX, pb.AX},
		{"ay", pa.AY, pb.AY},
		{"az", pa.AZ, pb.AZ},
		{"x", pa.X, pb.X},
		{"vx", pa.VX, pb.VX},
	}
	for _, f := range fields {
		if dev := maxRelDev(f.x, f.y); dev > tol {
			t.Errorf("%s: %s deviates by %.3g (> %g)", label, f.name, dev, tol)
		}
	}
}

// checkPairCoverage holds the fold to the main rows it was built from: for
// every particle, the pair records that scatter into it must reproduce
// exactly its main row (the density-type passes) and exactly its row plus
// every j whose row holds it beyond its own support (MomentumEnergy, which
// integrates a pair when either support covers it). Returns the number of
// such one-way momentum pairs.
func checkPairCoverage(t *testing.T, st *sph.State) int {
	t.Helper()
	nl := st.List
	n := st.P.N
	density := make([][]int32, n) // indices scattering into i for density-type passes
	momentum := make([][]int32, n)
	for a := 0; a < n; a++ {
		for k := nl.PairOffsets[a]; k < nl.PairOffsets[a+1]; k++ {
			b := nl.PairIdx[k]
			both := nl.PairBoth[k] != 0
			// Owner side always integrates the pair.
			density[a] = append(density[a], b)
			momentum[a] = append(momentum[a], b)
			if both {
				density[b] = append(density[b], int32(a))
			}
			if both || nl.PairDist[k] >= 2*st.P.H[b] {
				momentum[b] = append(momentum[b], int32(a))
			}
		}
	}
	wantDensity := make([][]int32, n)
	wantMomentum := make([][]int32, n)
	for i := 0; i < n; i++ {
		for k := nl.Offsets[i]; k < nl.Offsets[i+1]; k++ {
			j := nl.Idx[k]
			wantDensity[i] = append(wantDensity[i], j)
			wantMomentum[i] = append(wantMomentum[i], j)
			if nl.Dist[k] >= 2*st.P.H[j] {
				wantMomentum[j] = append(wantMomentum[j], int32(i))
			}
		}
	}
	sorted := func(s []int32) []int32 {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		return s
	}
	equal := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	oneWay := 0
	for i := 0; i < n; i++ {
		if got, want := sorted(density[i]), sorted(wantDensity[i]); !equal(got, want) {
			t.Fatalf("particle %d: density coverage %v != main row %v", i, got, want)
		}
		if got, want := sorted(momentum[i]), sorted(wantMomentum[i]); !equal(got, want) {
			t.Fatalf("particle %d: momentum coverage %v != %v", i, got, want)
		}
		oneWay += len(wantMomentum[i]) - len(wantDensity[i])
	}
	return oneWay
}

// TestSymmetricPairListCoverage checks the fold structurally on the Evrard
// profile, whose smoothing-length contrasts produce one-way pairs.
func TestSymmetricPairListCoverage(t *testing.T) {
	p, opt := initcond.Evrard(initcond.DefaultEvrard(8))
	opt.NgTarget = 32
	st := sph.NewState(p, opt)
	st.FindNeighbors()
	if checkPairCoverage(t, st) == 0 {
		t.Error("setup produced no one-way pairs; the asymmetric-support branch went untested")
	}
}

// TestSymmetricNgmaxTruncation drives every row to the ngmax cap, forcing
// the fold's truncation-aware reverse-edge scan: the coverage must still
// match the truncated rows exactly, and the folded density must equal the
// per-row sum over those rows.
func TestSymmetricNgmaxTruncation(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
	opt.NgTarget = 32
	opt.NgMax = 8
	opt.ReorderEvery = 0
	st := runSym(t, func() *sph.State { return sph.NewState(p, opt) }, 2, false)
	st.FindNeighbors()
	st.XMass()
	nl := st.List
	if nl.Overflow == 0 {
		t.Fatal("cap did not overflow; the truncation path went untested")
	}
	checkPairCoverage(t, st)
	k := st.Opt.Kernel
	for i := 0; i < st.P.N; i++ {
		h := st.P.H[i]
		want := st.P.XM[i] * k.W(0, h)
		for e := nl.Offsets[i]; e < nl.Offsets[i+1]; e++ {
			want += st.P.XM[nl.Idx[e]] * k.W(nl.Dist[e], h)
		}
		if math.Abs(st.P.Kx[i]-want) > 1e-12*want {
			t.Fatalf("particle %d: folded kx %.17g, per-row sum %.17g", i, st.P.Kx[i], want)
		}
	}
}

// TestSymmetricPassesSteadyStateAllocFree pins the allocation-free steady
// state of the production step: once the neighbor-list buffers, the slab
// sweep scratch and the scatter accumulators are warm, FindNeighbors and a
// full density→momentum sweep perform no data-dependent allocation — no
// chunk buffers, no merge copies, no regrown lists. A small constant number
// of allocations per step remains — escaping closure headers in the par
// layer — so the test asserts the count is tiny AND independent of problem
// size, and that the bytes allocated per step are too.
func TestSymmetricPassesSteadyStateAllocFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	type cost struct{ allocs, bytes float64 }
	stepCost := func(nside int) cost {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(nside))
		opt.NgTarget = 32
		opt.ReorderEvery = 0
		st := sph.NewState(p, opt)
		for s := 0; s < 3; s++ {
			st.RunStep(nil)
		}
		if !st.SweptLastGather() {
			t.Fatalf("%d³: the slab sweep is not engaged; the steady state under test is the fallback", nside)
		}
		step := func() {
			st.FindNeighbors()
			st.XMass()
			st.NormalizationGradh()
			st.EquationOfState()
			st.IADVelocityDivCurl()
			st.AVSwitches(st.Dt)
			st.MomentumEnergy()
		}
		step() // the list buffers grow to this configuration's size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for r := 0; r < runs; r++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return cost{
			allocs: testing.AllocsPerRun(runs, step),
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / runs,
		}
	}
	small, large := stepCost(16), stepCost(20)
	t.Logf("steady-state step: %.0f allocs, %.0f B at 16³; %.0f allocs, %.0f B at 20³",
		small.allocs, small.bytes, large.allocs, large.bytes)
	if small.allocs != large.allocs {
		t.Errorf("steady-state step allocations scale with problem size: %.0f at 16³ vs %.0f at 20³", small.allocs, large.allocs)
	}
	if large.allocs > 24 {
		t.Errorf("steady-state step allocates %.0f times, want a small constant (≤ 24 closure headers)", large.allocs)
	}
	if large.bytes > 2048 {
		t.Errorf("steady-state step allocates %.0f bytes, want only closure headers (≤ 2 KiB)", large.bytes)
	}
}
