package sph_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// The production path partitions every parallel loop — the slab sweep's
// cell ranges and spill buffers, the filter, the fold, the scatter
// accumulators — by the worker count, so its correctness has to hold at
// every GOMAXPROCS, including counts far past the host's cores and counts
// whose aligned partition runs fewer chunks than workers. The tests below
// hold it to the closure-walk reference under a smoothing-length ramp that
// coarsens the search grid between steps, so consecutive gathers on the
// same reusable sweep run on different cell counts and partitions.

// sweepProcs are the forced GOMAXPROCS settings of the worker-count sweep.
var sweepProcs = []int{1, 2, 3, 5, 8, 32}

// rampH lets the first two steps adapt h — which refines the grid, as the
// initial conditions size h for more neighbors than NgTarget — then
// inflates every smoothing length by 30% before each later step,
// outpacing the h update's pull toward the target neighbor count, so the
// grid built from the pre-update maximum coarsens again.
func rampH(st *sph.State) {
	if st.Step < 2 {
		return
	}
	for i := range st.P.H {
		st.P.H[i] *= 1.3
	}
}

// gridCells is the x-axis resolution FindNeighbors' grid will take on the
// next step: the box length over the interaction radius 2·1.3·max h.
func gridCells(st *sph.State) int {
	return int(st.Opt.Box.Lx() / (2 * 1.3 * st.P.MaxH()))
}

// rampRun advances st by steps ramped steps and returns the per-axis grid
// resolution of each.
func rampRun(st *sph.State, steps int, withGravity bool) []int {
	var pot []float64
	if withGravity {
		pot = make([]float64, st.P.N)
	}
	var cells []int
	for s := 0; s < steps; s++ {
		rampH(st)
		cells = append(cells, gridCells(st))
		stepManual(st, withGravity, pot)
	}
	return cells
}

func sweepTurbulence() *sph.State {
	// 26³ particles exceed the sweep's serial threshold, so the parallel
	// slab sweep — per-chunk spill buffers and all — runs.
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(26))
	opt.NgTarget = 32
	opt.ReorderEvery = 0
	return sph.NewState(p, opt)
}

func sweepEvrard() *sph.State {
	p, opt := initcond.Evrard(initcond.DefaultEvrard(16))
	opt.NgTarget = 32
	opt.ReorderEvery = 0
	return sph.NewState(p, opt)
}

// TestProductionMatchesWalkAcrossWorkerCounts holds the production path to
// the closure walk within 1e-9 on multi-step periodic Turbulence and
// open-box self-gravitating Evrard at every forced GOMAXPROCS of the
// sweep. The walk reference is computed once: its per-particle passes are
// independent of the worker count.
func TestProductionMatchesWalkAcrossWorkerCounts(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		name    string
		mk      func() *sph.State
		steps   int
		gravity bool
	}{
		{"turbulence", sweepTurbulence, 4, false},
		{"evrard", sweepEvrard, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(prev)
			walk := tc.mk()
			walk.Opt.ClosureWalk = true
			cells := rampRun(walk, tc.steps, tc.gravity)
			coarsened := false
			for s := 1; s < len(cells); s++ {
				coarsened = coarsened || cells[s] < cells[s-1]
			}
			t.Logf("cells per axis %v", cells)
			if !coarsened {
				t.Fatalf("the ramp never coarsened the grid (cells per axis %v)", cells)
			}
			for _, procs := range sweepProcs {
				runtime.GOMAXPROCS(procs)
				prod := tc.mk()
				rampRun(prod, tc.steps, tc.gravity)
				compareStates(t, fmt.Sprintf("%s at GOMAXPROCS=%d", tc.name, procs), prod, walk, 1e-9)
			}
		})
	}
}

// TestProductionCheckpointResumeBitIdentical: a run checkpointed mid-ramp
// and resumed must continue bit-identically at a worker count whose
// partitions are uneven.
func TestProductionCheckpointResumeBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	orig := sweepTurbulence()
	rampRun(orig, 2, false)
	var buf bytes.Buffer
	if err := orig.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := sph.ReadCheckpoint(&buf, orig.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		rampRun(orig, 1, false)
		rampRun(resumed, 1, false)
		assertBitIdentical(t, orig, resumed)
	}
}
