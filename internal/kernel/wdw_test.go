package kernel

import "testing"

// TestWDWBitIdenticalToSeparateCalls pins the PairEvaluator contract the
// symmetric SPH path relies on: the fused lookup must return exactly the
// floats of separate W and DW calls across the support (including the
// out-of-support and degenerate-h edges).
func TestWDWBitIdenticalToSeparateCalls(t *testing.T) {
	tab := NewTable(WendlandC2{}, 512)
	kernels := []struct {
		name string
		k    Kernel
		pe   PairEvaluator
	}{
		{"table", tab, tab},
	}
	hs := []float64{0.37, 1, 2.5, 0, -1}
	for _, kn := range kernels {
		for _, h := range hs {
			for i := 0; i <= 400; i++ {
				r := float64(i) * 0.0151 // runs past the 2h support at every h
				w, dw := kn.pe.WDW(r, h)
				if ws, dws := kn.k.W(r, h), kn.k.DW(r, h); w != ws || dw != dws {
					t.Fatalf("%s: WDW(%g, %g) = (%g, %g), separate calls give (%g, %g)",
						kn.name, r, h, w, dw, ws, dws)
				}
			}
		}
	}
}
