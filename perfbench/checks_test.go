package main

import (
	"math"
	"slices"
	"testing"

	"sphenergy"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// densityState returns a small periodic Turbulence state right after
// XMass, the point at which the benchmark checks Kx.
func densityState(t *testing.T) *sph.State {
	t.Helper()
	spec := initcond.DefaultTurbulence(10)
	spec.Seed = 3
	p, opt := initcond.Turbulence(spec)
	st := sph.NewState(p, opt)
	st.FindNeighbors()
	st.XMass()
	return st
}

// boundarySample picks particles next to the periodic faces, whose
// neighbors are only found through the minimum image, plus an interior one.
func boundarySample(st *sph.State) []int {
	var s []int
	for i := 0; i < st.P.N && len(s) < 6; i++ {
		x := st.P.X[i]
		if x < 0.05 || x > 0.95 {
			s = append(s, i)
		}
	}
	return append(s, st.P.N/2)
}

func TestDensityCheckPassesOnPipelineOutput(t *testing.T) {
	st := densityState(t)
	if bad := kxMismatches(st, boundarySample(st)); bad != 0 {
		t.Fatalf("%d pipeline Kx values flagged", bad)
	}
}

func TestDensityCheckFlagsPerturbedKx(t *testing.T) {
	st := densityState(t)
	sample := boundarySample(st)
	st.P.Kx[sample[0]] *= 1 + 1e-7
	if bad := kxMismatches(st, sample); bad != 1 {
		t.Fatalf("perturbed Kx: %d mismatches, want 1", bad)
	}
}

func TestFieldsCheck(t *testing.T) {
	st := densityState(t)
	mass0 := totalMass(st.P)
	if !fieldsOK(st.P, mass0) {
		t.Fatal("fresh state flagged")
	}
	st.P.Rho[5] = math.NaN()
	if fieldsOK(st.P, mass0) {
		t.Error("NaN density not flagged")
	}
	st.P.Rho[5] = 1
	st.P.M[7] *= 1 + 1e-12
	if fieldsOK(st.P, mass0) {
		t.Error("mass change not flagged")
	}
}

func TestDriftCheck(t *testing.T) {
	w := sphWorkload{energyTol: 0.01, momentumTol: 1e-6}
	ref := conservation{energy: 1, energyScale: 1, momScale: 1}
	now := ref
	now.energy = 1.005
	e, m := drift(ref, now)
	if math.Abs(e-0.005) > 1e-12 || m != 0 {
		t.Fatalf("drift = %g, %g; want 0.005, 0", e, m)
	}
	if p := w.driftProblem(&cycleResult{energyDrift: e, momDrift: m}); p != "" {
		t.Errorf("drift within bounds flagged: %s", p)
	}
	now.mom[1] = 1e-5
	e, m = drift(ref, now)
	if w.driftProblem(&cycleResult{energyDrift: e, momDrift: m}) == "" {
		t.Error("momentum drift not flagged")
	}
	if w.driftProblem(&cycleResult{energyDrift: math.NaN()}) == "" {
		t.Error("NaN drift not flagged")
	}
}

// TestNonPerturbationCheck: the same modeled run with and without
// instruments fingerprints identically, and any change to a simulated
// quantity is flagged.
func TestNonPerturbationCheck(t *testing.T) {
	cfg := sphenergy.Config{
		System: sphenergy.LUMIG(), Ranks: 2, Sim: sphenergy.Turbulence,
		ParticlesPerRank: 1e6, Steps: 3, Seed: 5,
	}
	bare, err := sphenergy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = sphenergy.NewTracer(2)
	cfg.Metrics = sphenergy.NewMetrics()
	cfg.Events = sphenergy.NewEventLedger(0)
	inst, err := sphenergy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := simFingerprint(bare)
	if !slices.Equal(simFingerprint(inst), want) {
		t.Fatal("instrumented run flagged as perturbed")
	}
	inst.Report.GPUEnergyJ = math.Nextafter(inst.Report.GPUEnergyJ, math.Inf(1))
	if slices.Equal(simFingerprint(inst), want) {
		t.Error("one-ulp GPU energy change not flagged")
	}
	inst.Report.GPUEnergyJ = bare.Report.GPUEnergyJ
	for _, f := range inst.Report.Ranks[1].Functions {
		f.TimeS *= 1.001
		break
	}
	if slices.Equal(simFingerprint(inst), want) {
		t.Error("per-function time change not flagged")
	}
}
