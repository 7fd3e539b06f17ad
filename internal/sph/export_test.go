package sph

import "sphenergy/internal/neighbors"

// SweptLastGather reports whether the last FindNeighbors gathered its
// candidates with the cell-slab sweep rather than the per-row fallback, by
// replaying the gather's feasibility decision on the same grid and cuts.
func (s *State) SweptLastGather() bool {
	var ss neighbors.SlabSweep
	_, _, _, swept := ss.Gather(s.Grid, s.cuts, nil, nil, nil)
	return swept
}
