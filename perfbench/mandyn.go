package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sphenergy"
	"sphenergy/internal/sampler"
)

// The paper path: one operation is a modeled 100-step Turbulence run of 8
// LUMI-G ranks at 150e6 particles per rank under the ManDyn table the
// tuner derives, with every instrument on. Host time here goes to core,
// gpusim, mpisim and the instruments, none of which the SPH workloads
// touch.
const (
	mandynRanks = 8
	mandynPPR   = 150e6
	mandynSteps = 100
	// The set-up (tuner plus a Baseline run) takes about 20 ms of CPU
	// time, which goroutine scheduling makes vary by up to 2x from one
	// repetition to the next, so it is repeated often enough for a steady
	// median.
	mandynSetupReps = 41
)

// rung is one step of the instrument ladder; each adds one instrument to
// the previous rung.
type rung struct {
	name                             string
	sampler, tracer, metrics, ledger bool
}

var ladder = []rung{
	{name: "bare"},
	{name: "sampler", sampler: true},
	{name: "tracer", sampler: true, tracer: true},
	{name: "metrics", sampler: true, tracer: true, metrics: true},
	{name: "ledger", sampler: true, tracer: true, metrics: true, ledger: true},
}

// instrumented is the full rung, the end-to-end operation.
var instrumented = ladder[len(ladder)-1]

// runCounts are the denominators a run's instruments report.
type runCounts struct {
	spans, samples, events, launches float64
}

type mandynRun struct {
	seed  uint64
	table map[string]int
}

func (m *mandynRun) config(strategy func() sphenergy.Strategy) sphenergy.Config {
	return sphenergy.Config{
		System:           sphenergy.LUMIG(),
		Ranks:            mandynRanks,
		Sim:              sphenergy.Turbulence,
		ParticlesPerRank: mandynPPR,
		Steps:            mandynSteps,
		NewStrategy:      strategy,
		Seed:             m.seed,
	}
}

// run executes one ManDyn modeled run with the rung's instruments and
// returns the result, its host CPU and wall time and the instruments'
// counts.
func (m *mandynRun) run(g rung) (*sphenergy.Result, float64, float64, runCounts, error) {
	cfg := m.config(sphenergy.ManDyn(m.table))
	var led *sphenergy.EventLedger
	if g.sampler {
		cfg.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
	}
	if g.tracer {
		cfg.Tracer = sphenergy.NewTracer(mandynRanks)
	}
	if g.metrics {
		cfg.Metrics = sphenergy.NewMetrics()
	}
	if g.ledger {
		led = sphenergy.NewEventLedger(0)
		cfg.Events = led
	}
	c0, t0 := cpuSeconds(), time.Now()
	res, err := sphenergy.Run(cfg)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	if err != nil {
		return nil, 0, 0, runCounts{}, err
	}
	c := runCounts{
		spans:  float64(cfg.Tracer.Len()),
		events: float64(led.Emitted()),
	}
	for _, ch := range res.Sampler.Channels() {
		c.samples += float64(ch.Stats().Ticks)
	}
	for _, node := range res.System.Nodes {
		for _, d := range node.Devices {
			c.launches += float64(d.KernelsRun())
		}
	}
	return res, cpu, wall, c, nil
}

func runPaperManDyn(seed uint64, seconds float64, trace bool) (*outcome, error) {
	m := &mandynRun{seed: seed}
	out := &outcome{values: make(map[string]float64)}
	spans := &spanLog{}

	// Set-up: the tuner and the Baseline reference run.
	var setupS, tuneS []float64
	var base *sphenergy.Result
	for i := 0; i < mandynSetupReps; i++ {
		runtime.GC()
		root := spans.begin("setup", -1)
		c0, t0 := cpuSeconds(), time.Now()
		table, err := sphenergy.TuneFrequencies(sphenergy.LUMIG(), sphenergy.Turbulence, mandynPPR, 0)
		c1, t1 := cpuSeconds(), time.Now()
		if err != nil {
			return nil, fmt.Errorf("tune: %w", err)
		}
		base, err = sphenergy.Run(m.config(sphenergy.Baseline()))
		c2, t2 := cpuSeconds(), time.Now()
		if err != nil {
			return nil, fmt.Errorf("baseline run: %w", err)
		}
		spans.finish(root)
		spans.add("tuner", root, t0, t1)
		spans.add("run.baseline", root, t1, t2)
		m.table = table
		setupS = append(setupS, c2-c0)
		tuneS = append(tuneS, c1-c0)
	}

	// The bare ManDyn run every instrumented run must reproduce bit for bit
	// (§III-B: instrumentation must not perturb the run).
	ref, _, _, _, err := m.run(ladder[0])
	if err != nil {
		return nil, fmt.Errorf("bare reference run: %w", err)
	}
	want := simFingerprint(ref)
	if !(ref.GPUEnergyJ() < base.GPUEnergyJ() && ref.GPUEDP() < base.GPUEDP()) {
		out.problems = append(out.problems, fmt.Sprintf(
			"ManDyn does not beat Baseline: GPU energy %.6g vs %.6g J, GPU EDP %.6g vs %.6g J·s",
			ref.GPUEnergyJ(), base.GPUEnergyJ(), ref.GPUEDP(), base.GPUEDP()))
	}
	op := func(g rung) (cpu, wall float64, c runCounts, err error) {
		res, cpu, wall, c, err := m.run(g)
		if err != nil {
			return 0, 0, c, err
		}
		out.attempted++
		if !slices.Equal(simFingerprint(res), want) {
			out.failed++
		}
		return cpu, wall, c, nil
	}
	particleSteps := float64(mandynRanks) * mandynPPR * mandynSteps

	if !trace {
		out.values["setup_s"] = median(setupS)
		var ops opTimes
		for t0 := time.Now(); time.Since(t0).Seconds() < seconds; {
			cpu, wall, _, err := op(instrumented)
			if err != nil {
				return nil, err
			}
			ops.add(cpu, wall)
		}
		out.notes = append(out.notes, ops.report(out.values, particleSteps))
		return out, nil
	}

	// Untraced operations: the reference for the tracing overhead and the
	// allocation counts. A quarter of the time budget.
	var plain opTimes
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for t0 := time.Now(); len(plain.cpu) < 5 || time.Since(t0).Seconds() < seconds/4; {
		cpu, wall, _, err := op(instrumented)
		if err != nil {
			return nil, err
		}
		plain.add(cpu, wall)
	}
	runtime.ReadMemStats(&m1)
	ops := float64(len(plain.cpu))
	out.values["mem.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	out.values["mem.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	out.values["mem.gc_pause_ms_per_op"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / ops

	// The instrument ladder, interleaved round by round (rotating which
	// rung goes first) so drift in the host's speed spreads over all rungs.
	// Rungs are compared by CPU time, like the end-to-end metrics.
	times := make([][]float64, len(ladder))
	counts := make([]runCounts, len(ladder))
	rounds := 0
	for t0 := time.Now(); rounds < 5 || time.Since(t0).Seconds() < seconds*3/4; rounds++ {
		for k := range ladder {
			g := (k + rounds) % len(ladder)
			start := time.Now()
			cpu, _, c, err := op(ladder[g])
			if err != nil {
				return nil, err
			}
			spans.add("run."+ladder[g].name, -1, start, time.Now())
			times[g] = append(times[g], cpu)
			counts[g] = c
		}
	}
	med := make([]float64, len(ladder))
	for g := range ladder {
		med[g] = median(times[g]) * 1e3
	}
	// An instrument's cost is the median over rounds of the difference
	// between its rung and the one below, both from the same round.
	added := func(g int) float64 {
		d := make([]float64, rounds)
		for i := range d {
			d[i] = times[g][i] - times[g-1][i]
		}
		return median(d) * 1e3
	}
	full := counts[len(ladder)-1]
	v := out.values
	v["core.run_bare.ms"] = med[0]
	v["instr.sampler.ms"] = added(1)
	v["instr.tracer.ms"] = added(2)
	v["instr.metrics.ms"] = added(3)
	v["instr.ledger.ms"] = added(4)
	v["tracer.spans"] = full.spans
	v["sampler.samples"] = full.samples
	v["events.emitted"] = full.events
	v["gpusim.kernel_launches"] = full.launches
	v["instr.tracer.ns_per_span"] = ratio(v["instr.tracer.ms"]*1e6, full.spans)
	v["instr.sampler.ns_per_sample"] = ratio(v["instr.sampler.ms"]*1e6, full.samples)
	v["instr.ledger.ns_per_event"] = ratio(v["instr.ledger.ms"]*1e6, full.events)
	v["tuner.tune.ms"] = median(tuneS) * 1e3
	v["sim.time_ratio"] = ref.WallTimeS / base.WallTimeS
	v["sim.gpu_energy_ratio"] = ref.GPUEnergyJ() / base.GPUEnergyJ()
	v["sim.gpu_edp_ratio"] = ref.GPUEDP() / base.GPUEDP()
	v["trace.overhead_ms"] = med[len(ladder)-1] - median(plain.cpu)*1e3

	for g := range ladder {
		out.notes = append(out.notes, fmt.Sprintf("rung %-8s median %8.3f ms over %d runs", ladder[g].name, med[g], len(times[g])))
	}
	out.notes = append(out.notes, fmt.Sprintf("untraced instrumented run: CPU median %.3f ms, wall median %.3f ms (n=%d)",
		median(plain.cpu)*1e3, median(plain.wall)*1e3, len(plain.cpu)))
	out.notes = append(out.notes, spans.selfTimeNotes()...)
	path, err := spans.write(".bench_build", fmt.Sprintf("perfbench-trace-paper-mandyn-seed%d.json", seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %d written to %s", len(spans.spans), path))
	return out, nil
}
