package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/rng"
	"sphenergy/internal/sph"
)

// The SPH workloads run the options their initcond constructor
// returns, so a change to sph.DefaultOptions shows in the numbers.
//
// Step cost depends on where a run is in its evolution (Evrard's
// rebuild rate climbs as the sphere collapses), so a run that simply
// stepped for a fixed time would reach later, dearer steps on a faster
// program. Instead each run replays one fixed window of steps: set-up
// ends with warmup untimed steps and an in-memory checkpoint, and every
// cycle restores that checkpoint, takes one untimed step (a restored
// state regenerates its neighbor candidates there, which an
// uninterrupted run does not do) and then times window steps. The
// restore is bit-identical, so every cycle does exactly the same work.
const (
	sphSetupReps = 3 // set-ups per run; setup_s is their median
	kxSample     = 8 // particles whose Kx the density check recomputes per step
)

// sphWorkload is one SPH benchmark workload.
type sphWorkload struct {
	name   string
	build  func(seed uint64) (*sph.Particles, sph.Options)
	warmup int // untimed steps after NewState, before the checkpoint
	window int // timed steps per cycle
	// Bounds on the relative drift over one window of total energy
	// (against kinetic + internal + |potential|) and of total momentum
	// (against the sum of m|v|).
	energyTol, momentumTol float64
}

// runTurbulence: 27,000 particles in a periodic box without gravity; the
// neighbor search and the pair passes do almost all the work. Its window
// (steps 3-26) rebuilds the neighbor candidates every third step. The
// isothermal equation of state does not conserve kinetic + internal
// energy: the integrated internal energy grows by about 0.7% over the
// window, so its energy bound only catches a blow-up.
func runTurbulence(seed uint64, seconds float64, trace bool) (*outcome, error) {
	return runSPH(sphWorkload{
		name: "turbulence-30",
		build: func(seed uint64) (*sph.Particles, sph.Options) {
			spec := initcond.DefaultTurbulence(30)
			spec.Seed = seed
			return initcond.Turbulence(spec)
		},
		warmup:      2,
		window:      24,
		energyTol:   0.02,
		momentumTol: 1e-9,
	}, seed, seconds, trace)
}

// runEvrard: 14,328 particles in an open box with a 1/r density profile
// and Barnes-Hut self-gravity, which takes about half of each step. Its
// uneven smoothing lengths give a coarse grid with crowded central
// cells. Its window (steps 3-50) rebuilds about one step in five, and
// loses about 0.5% of its energy to the softened tree gravity.
func runEvrard(seed uint64, seconds float64, trace bool) (*outcome, error) {
	return runSPH(sphWorkload{
		name: "evrard-30",
		build: func(seed uint64) (*sph.Particles, sph.Options) {
			spec := initcond.DefaultEvrard(30)
			p, opt := initcond.Evrard(spec)
			jitterEvrard(p, spec, seed)
			return p, opt
		},
		warmup:      2,
		window:      48,
		energyTol:   0.02,
		momentumTol: 1e-3,
	}, seed, seconds, trace)
}

// jitterEvrard moves every particle by up to ±5% of the lattice spacing,
// drawn from seed, in the uniform lattice space initcond.Evrard stretches
// into the 1/r profile (EvrardSpec.Seed does not vary the positions).
func jitterEvrard(p *sph.Particles, spec initcond.EvrardSpec, seed uint64) {
	r := rng.New(seed)
	amp := 0.1 * 2 / float64(spec.NSide)
	for i := 0; i < p.N; i++ {
		// Undo the stretch r_new = R (r_old)^(3/2), jitter, redo it.
		x, y, z := p.X[i], p.Y[i], p.Z[i]
		rn := math.Sqrt(x*x + y*y + z*z)
		s := 0.0
		if rn > 0 {
			s = math.Pow(rn/spec.R, 2.0/3.0) / rn
		}
		qx := x*s + amp*(r.Float64()-0.5)
		qy := y*s + amp*(r.Float64()-0.5)
		qz := z*s + amp*(r.Float64()-0.5)
		rq := math.Sqrt(qx*qx + qy*qy + qz*qz)
		t := spec.R * math.Sqrt(rq)
		p.X[i], p.Y[i], p.Z[i] = qx*t, qy*t, qz*t
	}
}

// stepLayers is what the traced run records about one step.
type stepLayers struct {
	stepS               float64
	pass                map[string]float64
	gravBuild, gravWalk float64
	rebuilt             bool // the step rebuilt the neighbor candidates
	pairs, cands        int
	overflow            int
}

// sphRun holds one SPH workload run.
type sphRun struct {
	w     sphWorkload
	seed  uint64
	opt   sph.Options // initcond's options plus the benchmark's hooks
	st    *sph.State
	pot   []float64 // gravity potential of the last step
	mass0 float64
	snap  []byte       // checkpoint taken at the end of set-up
	ref   conservation // totals at the checkpoint

	sample []int // particles the current step's density check covers (none in set-up)
	kxBad  int   // density-check mismatches in the current step
	// CPU and wall time the current step spent in the density check.
	checkCPU, checkWall float64
	log                 *spanLog    // non-nil while tracing
	stepID              int         // open step span
	pending             []int       // gravity spans awaiting their pass span
	cur                 *stepLayers // non-nil while recording layers

	extra func(*sph.Particles) // RunStep's extraAccel: gravity, or nil
}

// hook is the PassHook: it runs the density check after XMass and, while
// tracing, records a span per pass.
func (r *sphRun) hook(pass string, seconds float64) {
	now := time.Now()
	if r.log != nil {
		id := r.log.add(pass, r.stepID, now.Add(-time.Duration(seconds*1e9)), now)
		if pass == sph.PassGravity {
			r.log.reparent(r.pending, id)
			r.pending = r.pending[:0]
		}
	}
	if r.cur != nil {
		r.cur.pass[pass] += seconds
	}
	if pass == sph.PassXMass && len(r.sample) > 0 {
		c0 := cpuSeconds()
		r.kxBad += kxMismatches(r.st, r.sample)
		r.checkCPU += cpuSeconds() - c0
		end := time.Now()
		r.checkWall += end.Sub(now).Seconds()
		if r.log != nil {
			r.log.add("check.kx", r.stepID, now, end)
		}
	}
}

// gravity is the extraAccel callback of gravity workloads.
func (r *sphRun) gravity(p *sph.Particles) {
	t0 := time.Now()
	tree := gravity.Build(p.X, p.Y, p.Z, p.M, r.opt.GravTheta, r.opt.GravEps, r.opt.GravG)
	t1 := time.Now()
	tree.AccelerationsInto(p.AX, p.AY, p.AZ, r.pot)
	t2 := time.Now()
	if r.log != nil {
		r.pending = append(r.pending, r.log.add("gravity.build", -1, t0, t1), r.log.add("gravity.walk", -1, t1, t2))
	}
	if r.cur != nil {
		r.cur.gravBuild += t1.Sub(t0).Seconds()
		r.cur.gravWalk += t2.Sub(t1).Seconds()
	}
}

// setup builds the initial conditions and runs the warm-up steps,
// returning the CPU time of the initial conditions, of the first step and
// of the whole set-up.
func (r *sphRun) setup() (initS, firstS, totalS float64) {
	c0 := cpuSeconds()
	p, opt := r.w.build(r.seed)
	initS = cpuSeconds() - c0
	opt.PassHook = r.hook
	r.opt = opt
	r.extra = nil
	if opt.Gravity {
		r.extra = r.gravity
	}
	r.pot = make([]float64, p.N)
	r.st = sph.NewState(p, opt)
	for i := 0; i < r.w.warmup; i++ {
		c := cpuSeconds()
		r.st.RunStep(r.extra)
		if i == 0 {
			firstS = cpuSeconds() - c
		}
	}
	return initS, firstS, cpuSeconds() - c0
}

// checkpoint snapshots the set-up state that every cycle restores.
func (r *sphRun) checkpoint() error {
	var buf bytes.Buffer
	if err := r.st.WriteCheckpoint(&buf); err != nil {
		return err
	}
	r.snap = buf.Bytes()
	r.mass0 = totalMass(r.st.P)
	r.ref = measureConservation(r.st, r.potOrNil())
	return nil
}

func (r *sphRun) potOrNil() []float64 {
	if r.opt.Gravity {
		return r.pot
	}
	return nil
}

// restore replaces the state with the checkpoint.
func (r *sphRun) restore() error {
	r.st = nil
	runtime.GC() // release the old state before the new one is allocated
	st, err := sph.ReadCheckpoint(bytes.NewReader(r.snap), r.opt)
	if err != nil {
		return err
	}
	r.st = st
	return nil
}

// step runs one checked step and returns its CPU and wall time, without
// the density check, and whether every check passed.
func (r *sphRun) step() (cpu, wall float64, ok bool) {
	rg := rng.New(r.seed ^ uint64(r.st.Step)<<32)
	for k := range r.sample {
		r.sample[k] = rg.Intn(r.st.P.N)
	}
	r.kxBad, r.checkCPU, r.checkWall = 0, 0, 0
	rebuilds := r.st.NbrStats.Rebuilds
	if r.log != nil {
		r.stepID = r.log.begin("step", -1)
	}
	c0, t0 := cpuSeconds(), time.Now()
	r.st.RunStep(r.extra)
	wall = time.Since(t0).Seconds() - r.checkWall
	cpu = cpuSeconds() - c0 - r.checkCPU
	if r.log != nil {
		r.log.finish(r.stepID)
	}
	if c := r.cur; c != nil {
		c.stepS = wall
		c.rebuilt = r.st.NbrStats.Rebuilds > rebuilds
		if l := r.st.List; l != nil {
			c.pairs = int(l.Offsets[r.st.P.N])
			if len(l.CandOffsets) == r.st.P.N+1 {
				c.cands = int(l.CandOffsets[r.st.P.N])
			}
			c.overflow = l.Overflow
		}
	}
	return cpu, wall, r.kxBad == 0 && fieldsOK(r.st.P, r.mass0)
}

func statsDelta(a, b sph.NeighborStats) sph.NeighborStats {
	return sph.NeighborStats{
		Rebuilds:        a.Rebuilds - b.Rebuilds,
		Refreshes:       a.Refreshes - b.Refreshes,
		RebuildInit:     a.RebuildInit - b.RebuildInit,
		RebuildCadence:  a.RebuildCadence - b.RebuildCadence,
		RebuildDrift:    a.RebuildDrift - b.RebuildDrift,
		RebuildOverflow: a.RebuildOverflow - b.RebuildOverflow,
		GatherSeconds:   a.GatherSeconds - b.GatherSeconds,
		FilterSeconds:   a.FilterSeconds - b.FilterSeconds,
	}
}

// cycleResult is one replay of the window.
type cycleResult struct {
	ops                   opTimes // timed steps
	layers                []stepLayers
	attempted, failed     int
	energyDrift, momDrift float64
	// Changes over the timed steps.
	nbr sph.NeighborStats
	mem runtime.MemStats
}

// cycle replays the window once: restore (unless the live state still is
// the checkpoint), one untimed step, the first steps of the window timed,
// then the drift check. With record set it keeps each timed step's layer
// data.
func (r *sphRun) cycle(restore, record bool, steps int) (*cycleResult, error) {
	if restore {
		if err := r.restore(); err != nil {
			return nil, err
		}
	}
	res := &cycleResult{}
	countStep := func(ok bool) {
		res.attempted++
		if !ok {
			res.failed++
		}
	}
	_, _, ok := r.step()
	countStep(ok)
	// Start the timed steps from a collected heap, so the collections
	// inside them, whose CPU time they carry, fall at the same steps in
	// every cycle and every run.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nbr0 := r.st.NbrStats
	for i := 0; i < steps; i++ {
		if record {
			r.cur = &stepLayers{pass: make(map[string]float64, 10)}
		}
		cpu, wall, ok := r.step()
		countStep(ok)
		res.ops.add(cpu, wall)
		if record {
			res.layers = append(res.layers, *r.cur)
			r.cur = nil
		}
	}
	runtime.ReadMemStats(&m1)
	res.nbr = statsDelta(r.st.NbrStats, nbr0)
	res.mem.Mallocs = m1.Mallocs - m0.Mallocs
	res.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	res.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.energyDrift, res.momDrift = drift(r.ref, measureConservation(r.st, r.potOrNil()))
	return res, nil
}

// driftProblem names a conservation violation, or returns "".
func (w sphWorkload) driftProblem(c *cycleResult) string {
	if !(c.energyDrift <= w.energyTol && c.momDrift <= w.momentumTol) {
		return fmt.Sprintf("conservation drift over the window: energy %.3g (bound %g), momentum %.3g (bound %g)",
			c.energyDrift, w.energyTol, c.momDrift, w.momentumTol)
	}
	return ""
}

func runSPH(w sphWorkload, seed uint64, seconds float64, trace bool) (*outcome, error) {
	r := &sphRun{w: w, seed: seed}
	out := &outcome{values: make(map[string]float64)}

	var initS, firstS, setupS []float64
	for i := 0; i < sphSetupReps; i++ {
		r.st = nil
		runtime.GC()
		a, b, c := r.setup()
		initS, firstS, setupS = append(initS, a), append(firstS, b), append(setupS, c)
	}
	if err := r.checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	r.sample = make([]int, kxSample) // the density check starts with the timed loop
	n := r.st.P.N
	out.notes = append(out.notes, fmt.Sprintf("particles=%d warmup=%d window=%d setup_reps=%d",
		n, w.warmup, w.window, sphSetupReps))

	addCycle := func(c *cycleResult) {
		out.attempted += c.attempted
		out.failed += c.failed
		if p := w.driftProblem(c); p != "" {
			out.problems = append(out.problems, p)
		}
	}

	if !trace {
		out.values["setup_s"] = median(setupS)
		var ops opTimes
		t0 := time.Now()
		// Whole cycles only, as many as fit in the time given (at least one).
		for c := 1; ; c++ {
			res, err := r.cycle(c > 1, false, w.window)
			if err != nil {
				return nil, err
			}
			addCycle(res)
			ops.cpu = append(ops.cpu, res.ops.cpu...)
			ops.wall = append(ops.wall, res.ops.wall...)
			if el := time.Since(t0).Seconds(); el+el/float64(2*c) >= seconds {
				out.notes = append(out.notes, fmt.Sprintf("cycles=%d", c))
				break
			}
		}
		out.notes = append(out.notes, ops.report(out.values, float64(n)))
		return out, nil
	}

	out.values["setup.initcond_s"] = median(initS)
	out.values["setup.first_step_s"] = median(firstS)

	// Untraced cycle: the reference for the tracing overhead, and the
	// allocation counts (nothing the benchmark records allocates in it).
	plain, err := r.cycle(false, false, w.window)
	if err != nil {
		return nil, err
	}
	addCycle(plain)
	steps := float64(len(plain.ops.cpu))
	out.values["mem.alloc_bytes_per_op"] = float64(plain.mem.TotalAlloc) / steps
	out.values["mem.allocs_per_op"] = float64(plain.mem.Mallocs) / steps
	out.values["mem.gc_pause_ms_per_op"] = float64(plain.mem.PauseTotalNs) / 1e6 / steps

	r.log = &spanLog{}
	traced, err := r.cycle(true, true, w.window)
	if err != nil {
		return nil, err
	}
	addCycle(traced)
	spans := r.log
	r.log = nil

	// The parallel speed-ups compare the first third of the window (a
	// third, to keep the traced run short) at nproc and on one thread, run
	// back to back so both see the same load on the host.
	multi, err := r.cycle(true, true, w.window/3)
	if err != nil {
		return nil, err
	}
	addCycle(multi)
	procs := runtime.GOMAXPROCS(1)
	single, err := r.cycle(true, true, w.window/3)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	addCycle(single)

	sphLayerMetrics(out.values, traced.layers, traced.nbr, spans, n)
	par := func(name string, f func(l stepLayers) float64) {
		out.values["par."+name+".speedup"] = ratio(sumOf(single.layers, f), sumOf(multi.layers, f))
	}
	par("step", func(l stepLayers) float64 { return l.stepS })
	par("find_neighbors", func(l stepLayers) float64 { return l.pass[sph.PassFindNeighbors] })
	par("momentum_energy", func(l stepLayers) float64 { return l.pass[sph.PassMomentumEnergy] })
	par("gravity", func(l stepLayers) float64 { return l.pass[sph.PassGravity] })

	tracedP50, plainP50 := median(traced.ops.cpu)*1e3, median(plain.ops.cpu)*1e3
	out.values["trace.overhead_ms"] = tracedP50 - plainP50
	out.notes = append(out.notes, fmt.Sprintf(
		"op_cpu_ms.p50 traced %.3f ms, untraced %.3f ms; wall p50 traced %.3f ms, untraced %.3f ms (n=%d each)",
		tracedP50, plainP50, median(traced.ops.wall)*1e3, median(plain.ops.wall)*1e3, len(plain.ops.cpu)))
	out.notes = append(out.notes, spans.selfTimeNotes()...)
	path, err := spans.write(".bench_build", fmt.Sprintf("perfbench-trace-%s-seed%d.json", w.name, seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %d written to %s", len(spans.spans), path))
	return out, nil
}

func sumOf(ls []stepLayers, f func(stepLayers) float64) float64 {
	t := 0.0
	for _, l := range ls {
		t += f(l)
	}
	return t
}

// sphLayerMetrics derives the sph, neighbors and gravity metrics of the
// traced cycle. Times are per step; per-unit costs divide summed time by
// summed work.
func sphLayerMetrics(v map[string]float64, ls []stepLayers, st sph.NeighborStats, spans *spanLog, n int) {
	steps := float64(len(ls))
	self := spans.selfTimes()
	for _, pass := range []string{
		sph.PassFindNeighbors, sph.PassXMass, sph.PassGradh, sph.PassEOS, sph.PassIAD,
		sph.PassAVSwitches, sph.PassMomentumEnergy, sph.PassGravity, sph.PassTimestep, sph.PassUpdate,
	} {
		v["sph."+pass+".ms"] = self[pass] * 1e3 / steps
	}
	v["sph.unattributed.ms"] = self["step"] * 1e3 / steps

	pairs := sumOf(ls, func(l stepLayers) float64 { return float64(l.pairs) })
	cands := sumOf(ls, func(l stepLayers) float64 { return float64(l.cands) })
	for _, pass := range []string{sph.PassXMass, sph.PassGradh, sph.PassIAD, sph.PassMomentumEnergy} {
		p := pass
		v["sph."+p+".ns_per_pair"] = ratio(sumOf(ls, func(l stepLayers) float64 { return l.pass[p] })*1e9, pairs)
	}

	var rebuildS, refreshS, rebuildC, refreshC float64
	for _, l := range ls {
		fn := l.pass[sph.PassFindNeighbors]
		if l.rebuilt {
			rebuildS += fn
			rebuildC += float64(l.cands)
		} else {
			refreshS += fn
			refreshC += float64(l.cands)
		}
	}
	v["neighbors.rebuild.ms"] = ratio(rebuildS*1e3, float64(st.Rebuilds))
	v["neighbors.refresh.ms"] = ratio(refreshS*1e3, float64(st.Refreshes))
	v["neighbors.rebuilds"] = float64(st.Rebuilds)
	v["neighbors.refreshes"] = float64(st.Refreshes)
	v["neighbors.rebuild_init"] = float64(st.RebuildInit)
	v["neighbors.rebuild_drift"] = float64(st.RebuildDrift)
	v["neighbors.rebuild_overflow"] = float64(st.RebuildOverflow)
	v["neighbors.rebuild_cadence"] = float64(st.RebuildCadence)
	v["neighbors.pairs_per_particle"] = pairs / steps / float64(n)
	v["neighbors.candidates_per_particle"] = cands / steps / float64(n)
	v["neighbors.admit_ratio"] = ratio(pairs, cands)
	v["neighbors.rebuild.ns_per_candidate"] = ratio(rebuildS*1e9, rebuildC)
	v["neighbors.refresh.ns_per_candidate"] = ratio(refreshS*1e9, refreshC)
	v["neighbors.overflow"] = sumOf(ls, func(l stepLayers) float64 { return float64(l.overflow) }) / steps

	walk := sumOf(ls, func(l stepLayers) float64 { return l.gravWalk })
	v["gravity.build.ms"] = sumOf(ls, func(l stepLayers) float64 { return l.gravBuild }) * 1e3 / steps
	v["gravity.walk.ms"] = walk * 1e3 / steps
	if walk > 0 {
		v["gravity.walk.ns_per_particle"] = walk * 1e9 / (steps * float64(n))
	}
}
