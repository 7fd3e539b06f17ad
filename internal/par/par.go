// Package par provides the data-parallel loop primitives used by the SPH
// pipeline: chunked parallel-for over index ranges and parallel reductions,
// implemented with plain goroutines and sync.WaitGroup.
//
// Work is split into contiguous chunks (one per worker) rather than
// fine-grained tasks: SPH loops are regular, so static chunking avoids
// scheduling overhead and keeps memory access streaming.
package par

import (
	"runtime"
	"sync"
)

// MaxWorkers returns the degree of parallelism used by For and Reduce.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// SerialGrain is the minimum number of iterations per worker before a loop
// is worth spawning goroutines for: below it, the goroutine spawn and
// WaitGroup synchronization cost more than the loop body (measured on the
// cheap passes — EOS, AVSwitches — at small particle counts).
const SerialGrain = 2048

// workersFor sizes the worker pool so each worker gets at least SerialGrain
// iterations; tiny loops collapse to a single inline worker.
func workersFor(n int) int {
	w := MaxWorkers()
	if g := (n + SerialGrain - 1) / SerialGrain; g < w {
		w = g
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkAlign rounds per-worker chunk lengths up to this many elements
// (8 float64s = one 64-byte cache line), so adjacent workers writing
// contiguous ranges of a shared output slice never straddle the same line.
const chunkAlign = 8

// chunkSize returns the per-worker chunk length for n items over the given
// worker count, cache-line aligned. The partition is a pure function of
// (n, workers), so chunk boundaries — and therefore any per-chunk reduction
// order — are deterministic for a fixed GOMAXPROCS.
func chunkSize(n, workers int) int {
	c := (n + workers - 1) / workers
	if r := c % chunkAlign; r != 0 {
		c += chunkAlign - r
	}
	return c
}

// padded64 is a per-worker reduction slot padded out to a full cache line:
// workers publish partials concurrently, and unpadded adjacent float64s
// would ping-pong the shared line between cores on every store (false
// sharing — measurable on the scatter-heavy symmetric SPH passes).
type padded64 struct {
	v float64
	_ [56]byte
}

// partition returns the chunk length of the split of [0, n) over workers
// and the number of non-empty chunks, live. The aligned chunk length can
// leave trailing workers without elements, so live may be smaller than
// workers; it is 0 for n <= 0.
func partition(n, workers int) (chunk, live int) {
	if n <= 0 {
		return 0, 0
	}
	chunk = chunkSize(n, max(workers, 1))
	return chunk, (n + chunk - 1) / chunk
}

// run is the one partition loop behind every primitive of the package: it
// splits [0, n) into at most workers contiguous chunks of chunkSize(n,
// workers) elements, executes fn(w, lo, hi) for every non-empty chunk —
// concurrently when there is more than one, inline otherwise — and
// returns how many chunks ran. Chunk ordinals are 0..live-1 with no gaps,
// so callers that keep per-chunk state (partials, spill buffers) index
// exactly the slots that were written.
func run(n, workers int, fn func(w, lo, hi int)) int {
	chunk, live := partition(n, workers)
	if live == 0 {
		return 0
	}
	if live == 1 {
		fn(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(live)
	for w := 0; w < live; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return live
}

// For executes fn(i) for every i in [0, n) using up to MaxWorkers
// goroutines. fn must be safe to call concurrently for distinct i. Loops
// shorter than SerialGrain run inline on the calling goroutine.
func For(n int, fn func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and executes fn(lo, hi)
// for each chunk concurrently. Useful when per-chunk setup (scratch buffers)
// amortizes across iterations. Loops shorter than SerialGrain run inline on
// the calling goroutine.
func ForChunked(n int, fn func(lo, hi int)) {
	if workers := workersFor(n); workers > 1 {
		run(n, workers, func(_, lo, hi int) { fn(lo, hi) })
	} else if n > 0 {
		fn(0, n) // no adapter closure: the serial path allocates nothing
	}
}

// ForWorkers splits [0, n) into at most workers contiguous aligned chunks,
// executes fn(w, lo, hi) for each concurrently, and returns the number of
// chunks that ran. Unlike ForChunked the caller chooses the worker count,
// and the chunk ordinal w lets it keep per-chunk scratch (e.g. the
// cell-slab sweep's spill buffers) without pooling or locking; ordinals
// run 0..live-1, and live can be smaller than workers, so per-chunk state
// beyond live is stale by construction. workers <= 1 runs fn(0, 0, n)
// inline on the calling goroutine. The partition is a pure function of
// (n, workers).
func ForWorkers(n, workers int, fn func(w, lo, hi int)) int {
	return run(n, workers, fn)
}

// SumFloat64 computes sum over i in [0, n) of fn(i) with a parallel
// tree-free reduction (one partial per chunk, summed deterministically in
// chunk order).
func SumFloat64(n int, fn func(i int) float64) float64 {
	return Reduce(n, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += fn(i)
		}
		return s
	}, func(a, b float64) float64 { return a + b })
}

// MinFloat64 computes the minimum of fn(i) over [0, n); n must be
// positive.
func MinFloat64(n int, fn func(i int) float64) float64 {
	if n <= 0 {
		panic("par: MinFloat64 requires n > 0")
	}
	return Reduce(n, func(lo, hi int) float64 {
		m := fn(lo)
		for i := lo + 1; i < hi; i++ {
			if v := fn(i); v < m {
				m = v
			}
		}
		return m
	}, func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	})
}

// Reduce splits [0, n) into contiguous chunks, evaluates fn(lo, hi) per
// chunk concurrently, and folds the per-chunk results with combine in
// ascending chunk order, so the result is deterministic for a fixed worker
// count. fn may carry side effects (e.g. filling per-chunk buffers) in
// addition to its reduction value. Returns 0 for n <= 0.
func Reduce(n int, fn func(lo, hi int) float64, combine func(a, b float64) float64) float64 {
	workers := workersFor(n)
	if workers == 1 {
		if n <= 0 {
			return 0
		}
		return fn(0, n)
	}
	partials := make([]padded64, workers)
	live := run(n, workers, func(w, lo, hi int) {
		partials[w].v = fn(lo, hi)
	})
	acc := partials[0].v
	for w := 1; w < live; w++ {
		acc = combine(acc, partials[w].v)
	}
	return acc
}
