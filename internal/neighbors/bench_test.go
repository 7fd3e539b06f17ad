package neighbors

import (
	"testing"

	"sphenergy/internal/sfc"
)

// Benchmarks of the cell grid: build, per-row query and the cell-slab
// candidate sweep.

func benchPoints(n int) (sfc.Box, []float64, []float64, []float64) {
	box := sfc.NewPeriodicCube(0, 1)
	x, y, z := randomPoints(box, n, 7)
	return box, x, y, z
}

func BenchmarkGridBuild(b *testing.B) {
	box, x, y, z := benchPoints(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGrid(box, x, y, z, 0.05)
	}
}

// BenchmarkGridBuildReuse is the steady-state path the SPH loop takes: the
// same Grid is rebuilt in place every step, so after warm-up the allocation
// column should read zero.
func BenchmarkGridBuildReuse(b *testing.B) {
	box, x, y, z := benchPoints(50000)
	var g *Grid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = BuildGridInto(g, box, x, y, z, 0.05)
	}
}

func BenchmarkGridQuery(b *testing.B) {
	box, x, y, z := benchPoints(50000)
	g := BuildGrid(box, x, y, z, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += g.CountNeighbors(i%50000, 0.05)
	}
	b.ReportMetric(float64(total)/float64(b.N), "neighbors/query")
}

// BenchmarkSlabGather is the steady-state cell-slab candidate sweep: one
// full-population gather per iteration over a warm SlabSweep. After warm-up
// the allocation column must read zero — this is the kernel the SPH
// cell-slab rebuild runs.
func BenchmarkSlabGather(b *testing.B) {
	benchmarkSlabGather(b, 50000, 0.05)
}

// BenchmarkSlabGatherDense matches the candidate density of the SPH skin
// rebuild at 30³ (~150 candidates per particle), where the folded sweep's
// advantage over the per-row walk is decided.
func BenchmarkSlabGatherDense(b *testing.B) {
	benchmarkSlabGather(b, 27000, 0.111)
}

func benchmarkSlabGather(b *testing.B, n int, rmax float64) {
	box, x, y, z := benchPoints(n)
	cut := mixedCuts(n, rmax, 7)
	g := BuildGrid(box, x, y, z, rmax)
	var ss SlabSweep
	off, idx, r2, ok := ss.Gather(g, cut, nil, nil, nil)
	if !ok {
		b.Fatal("sweep rejected the bench grid")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, idx, r2, _ = ss.Gather(g, cut, off, idx, r2)
	}
	b.ReportMetric(float64(off[n])/float64(n), "candidates/particle")
	_, _ = idx, r2
}

// BenchmarkWalkGatherCSR is the per-row ForEachNeighbor equivalent of
// BenchmarkSlabGather (identical output CSR), the baseline the folded
// half-sphere sweep is measured against.
func BenchmarkWalkGatherCSR(b *testing.B) {
	benchmarkWalkGatherCSR(b, 50000, 0.05)
}

// BenchmarkWalkGatherCSRDense is the walk baseline at the SPH skin-rebuild
// candidate density (see BenchmarkSlabGatherDense).
func BenchmarkWalkGatherCSRDense(b *testing.B) {
	benchmarkWalkGatherCSR(b, 27000, 0.111)
}

func benchmarkWalkGatherCSR(b *testing.B, n int, rmax float64) {
	box, x, y, z := benchPoints(n)
	cut := mixedCuts(n, rmax, 7)
	g := BuildGrid(box, x, y, z, rmax)
	off := make([]int32, n+1)
	idx := make([]int32, 0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx = idx[:0]
		for p := 0; p < n; p++ {
			off[p] = int32(len(idx))
			g.ForEachNeighbor(p, cut[p], func(j int, _, _, _, _ float64) {
				idx = append(idx, int32(j))
			})
		}
		off[n] = int32(len(idx))
	}
	b.ReportMetric(float64(off[n])/float64(n), "candidates/particle")
}
