package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"sphenergy/internal/sph"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 2}, 0, 1},
		{[]float64{1, 2}, 1, 2},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestRatio(t *testing.T) {
	if ratio(5, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

// TestSelfTimes: a span's self time excludes its children, not its
// grandchildren.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var l spanLog
	step := l.add("step", -1, at(0), at(100))
	l.add("xmass", step, at(0), at(30))
	g := l.add("gravity", step, at(40), at(90))
	l.add("gravity.walk", g, at(45), at(85))
	self := l.selfTimes()
	want := map[string]float64{"step": 0.020, "xmass": 0.030, "gravity": 0.010, "gravity.walk": 0.040}
	for n, w := range want {
		if math.Abs(self[n]-w) > 1e-12 {
			t.Errorf("self[%s] = %g, want %g", n, self[n], w)
		}
	}
}

// TestSPHLayerAggregation checks the per-step means, the rebuild/refresh
// split and the per-unit costs on two synthetic steps.
func TestSPHLayerAggregation(t *testing.T) {
	ls := []stepLayers{
		{stepS: 0.5, pass: map[string]float64{sph.PassFindNeighbors: 0.3, sph.PassXMass: 0.02},
			rebuilt: true, pairs: 1000, cands: 4000, gravWalk: 0.1},
		{stepS: 0.2, pass: map[string]float64{sph.PassFindNeighbors: 0.1, sph.PassXMass: 0.04},
			pairs: 1000, cands: 6000, gravWalk: 0.3},
	}
	v := make(map[string]float64)
	sphLayerMetrics(v, ls, sph.NeighborStats{Rebuilds: 1, RebuildDrift: 1, Refreshes: 1}, &spanLog{}, 100)
	want := map[string]float64{
		"neighbors.rebuild.ms":               300,
		"neighbors.refresh.ms":               100,
		"neighbors.rebuilds":                 1,
		"neighbors.refreshes":                1,
		"neighbors.rebuild_drift":            1,
		"neighbors.pairs_per_particle":       10,
		"neighbors.candidates_per_particle":  50,
		"neighbors.admit_ratio":              0.2,
		"neighbors.rebuild.ns_per_candidate": 0.3e9 / 4000,
		"neighbors.refresh.ns_per_candidate": 0.1e9 / 6000,
		"sph.xmass.ns_per_pair":              0.06e9 / 2000,
		"gravity.walk.ms":                    200,
		"gravity.walk.ns_per_particle":       0.4e9 / 200,
		"gravity.build.ms":                   0,
	}
	for n, w := range want {
		if math.Abs(v[n]-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %g, want %g", n, v[n], w)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the names and units the program
// prints in step with the BENCHMARK.json beside it.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workloads: BENCHMARK.json %v, program %v", got, want)
			}
		}
	}
}
