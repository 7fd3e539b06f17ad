// Command perfbench is the repository benchmark. It runs one workload in
// a single process as a closed loop (each operation starts when the
// previous one finishes), checks every operation's output, and prints
// each metric by name with its unit, followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around the calls it makes into each layer and prints
// the per-layer metrics, the self time of every span name and the tracing
// overhead instead, and writes the spans to .bench_build/ as Chrome
// trace-event JSON. Every layer is measured from outside: through
// sph.Options.PassHook, the public State fields, the benchmark's own
// gravity callback, and the accessors of core.Result. README.md lists the
// workloads, the metrics and which end-to-end metric each layer metric
// moves.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload turbulence-30 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics printed with -trace 0, in BENCHMARK.json
// order. An operation is one RunStep on the SPH workloads and one
// instrumented modeled run on paper-mandyn. Times are the process's CPU
// time (all threads, user + system), not wall time: on a shared virtual
// machine the hypervisor's steal time swings wall time by up to 1.8x
// between runs minutes apart, and steal is not charged as CPU time. Wall
// times are printed beside them.
var endToEnd = []struct{ name, unit string }{
	{"op_cpu_ms.p50", "ms"},
	{"op_cpu_ms.p90", "ms"},
	{"particle_steps_per_cpu_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics printed with -trace 1, in BENCHMARK.json
// order. Every workload prints all of them; a layer the workload does not
// run reads 0 (gravity on turbulence-30, the SPH passes on paper-mandyn).
var perLayer = []struct{ name, unit string }{
	{"sph.find_neighbors.ms", "ms"},
	{"sph.xmass.ms", "ms"},
	{"sph.gradh.ms", "ms"},
	{"sph.eos.ms", "ms"},
	{"sph.iad.ms", "ms"},
	{"sph.av_switches.ms", "ms"},
	{"sph.momentum_energy.ms", "ms"},
	{"sph.gravity.ms", "ms"},
	{"sph.timestep.ms", "ms"},
	{"sph.update.ms", "ms"},
	{"sph.unattributed.ms", "ms"},
	{"sph.xmass.ns_per_pair", "ns"},
	{"sph.gradh.ns_per_pair", "ns"},
	{"sph.iad.ns_per_pair", "ns"},
	{"sph.momentum_energy.ns_per_pair", "ns"},
	{"neighbors.rebuild.ms", "ms"},
	{"neighbors.refresh.ms", "ms"},
	{"neighbors.rebuilds", "count"},
	{"neighbors.refreshes", "count"},
	{"neighbors.rebuild_init", "count"},
	{"neighbors.rebuild_drift", "count"},
	{"neighbors.rebuild_overflow", "count"},
	{"neighbors.rebuild_cadence", "count"},
	{"neighbors.pairs_per_particle", "count"},
	{"neighbors.candidates_per_particle", "count"},
	{"neighbors.admit_ratio", "ratio"},
	{"neighbors.rebuild.ns_per_candidate", "ns"},
	{"neighbors.refresh.ns_per_candidate", "ns"},
	{"neighbors.overflow", "count"},
	{"gravity.build.ms", "ms"},
	{"gravity.walk.ms", "ms"},
	{"gravity.walk.ns_per_particle", "ns"},
	{"par.step.speedup", "x"},
	{"par.find_neighbors.speedup", "x"},
	{"par.momentum_energy.speedup", "x"},
	{"par.gravity.speedup", "x"},
	{"mem.alloc_bytes_per_op", "B"},
	{"mem.allocs_per_op", "count"},
	{"mem.gc_pause_ms_per_op", "ms"},
	{"setup.initcond_s", "s"},
	{"setup.first_step_s", "s"},
	{"core.run_bare.ms", "ms"},
	{"instr.sampler.ms", "ms"},
	{"instr.tracer.ms", "ms"},
	{"instr.metrics.ms", "ms"},
	{"instr.ledger.ms", "ms"},
	{"tracer.spans", "count"},
	{"sampler.samples", "count"},
	{"events.emitted", "count"},
	{"gpusim.kernel_launches", "count"},
	{"instr.tracer.ns_per_span", "ns"},
	{"instr.sampler.ns_per_sample", "ns"},
	{"instr.ledger.ns_per_event", "ns"},
	{"tuner.tune.ms", "ms"},
	{"sim.time_ratio", "ratio"},
	{"sim.gpu_energy_ratio", "ratio"},
	{"sim.gpu_edp_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// outcome is what a workload run hands back to main.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	// problems lists failed checks that are not operations (a setup
	// reference that disagrees, conservation drift); any entry makes the
	// run incorrect.
	problems []string
	// notes are printed before the metrics (sample counts, self times).
	notes []string
}

// workload runs one named workload.
type workload func(seed uint64, seconds float64, trace bool) (*outcome, error)

var workloads = map[string]workload{
	"turbulence-30": runTurbulence,
	"evrard-30":     runEvrard,
	"paper-mandyn":  runPaperManDyn,
}

func main() {
	name := flag.String("workload", "", "workload to run: turbulence-30, evrard-30 or paper-mandyn")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d); workloads: %v\n",
			*name, *seconds, *trace, workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	out, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *trace == 0 {
		out.values["peak_rss_mb"] = peakRSSMB()
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, m := range names {
		v := out.values[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("%-36s %14.6g (%d of %d operations)\n", "failed_frac",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuSeconds is the CPU time the process has used so far, user plus
// system, over all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// opTimes collects per-operation CPU and wall times.
type opTimes struct{ cpu, wall []float64 }

func (o *opTimes) add(cpu, wall float64) {
	o.cpu = append(o.cpu, cpu)
	o.wall = append(o.wall, wall)
}

// report sets the end-to-end timing metrics from o; work is the particle
// steps of one operation. It returns a note with the wall times.
func (o *opTimes) report(v map[string]float64, work float64) string {
	v["op_cpu_ms.p50"] = median(o.cpu) * 1e3
	v["op_cpu_ms.p90"] = quantile(o.cpu, 0.9) * 1e3
	v["particle_steps_per_cpu_s"] = work * float64(len(o.cpu)) / sum(o.cpu)
	return fmt.Sprintf("n=%d operations: wall p50 %.3f ms, p90 %.3f ms; %.6g particle steps per wall second",
		len(o.wall), median(o.wall)*1e3, quantile(o.wall, 0.9)*1e3, work*float64(len(o.wall))/sum(o.wall))
}

// peakRSSMB is the process's peak resident set size in MB (getrusage
// reports kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
