// Command perfbench is the repository benchmark: three closed-loop
// workloads over the SOCET flow, each run either end to end (obs
// disabled, the default) or traced (obs enabled, plus the benchmark's own
// timers around calls into each layer's public entry points).
//
//	perfbench -workload paper_flow|explore_gen|daemon_jobs
//	          [-seed N] [-seconds S] [-trace 0|1]
//	          [-socetd path/to/socetd] [-state dir]
//
// The last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set (zero where a workload does not reach a layer). Every
// correctness mismatch counts as a failed op. See README.md for the
// workloads, the metric definitions and the measured run-to-run spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the flow sees; printed with -trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"tat_cycles", "cycles"},
	{"dft_cells", "cells"},
	{"fault_coverage_pct", "%"},
}

// paperCores are the testable cores of System 1 and System 2, in flow
// order; the traced paper_flow run reports ATPG time per core.
var paperCores = []string{"CPU", "PREPROCESSOR", "DISPLAY", "GRAPHICS", "GCD", "X25"}

// perLayer is printed with -trace 1.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"atpg.generate_ms", "ms"},
		{"atpg.compact_ms", "ms"},
	}
	for _, c := range paperCores {
		out = append(out, metricSpec{"atpg.generate_ms." + c, "ms"}, metricSpec{"atpg.compact_ms." + c, "ms"})
	}
	return append(out, []metricSpec{
		{"atpg.max_core_ms", "ms"},
		{"atpg.implications", "count"},
		{"atpg.implications_per_s", "1/s"},
		{"atpg.backtracks", "count"},
		{"atpg.faults", "count"},
		{"atpg.detected", "count"},
		{"atpg.untestable", "count"},
		{"atpg.aborted", "count"},
		{"atpg.abort_ratio", "ratio"},
		{"atpg.raw_patterns", "count"},
		{"atpg.vectors", "count"},
		{"atpg.compact_keep_ratio", "ratio"},
		{"fsim.verify_ms", "ms"},
		{"fsim.verified_detected", "count"},
		{"fsim.unclaimed_detected", "count"},
		{"synth.ms", "ms"},
		{"hscan.ms", "ms"},
		{"trans.versions_ms", "ms"},
		{"trans.versions_built", "count"},
		{"core.prepare_ms", "ms"},
		{"core.evaluate_full_ms", "ms"},
		{"core.evaluate_delta_ms", "ms"},
		{"ccg.build_ms", "ms"},
		{"sched.schedule_ms", "ms"},
		{"sched.interconnect_ms", "ms"},
		{"core.evaluations", "count"},
		{"core.delta_evaluations", "count"},
		{"core.delta_fallback_ratio", "ratio"},
		{"ccg.searches", "count"},
		{"ccg.relaxations", "count"},
		{"ccg.reservation_conflicts", "count"},
		{"explore.points_evaluated", "count"},
		{"go.alloc_mb_per_op", "MiB"},
		{"api.submit_ms", "ms"},
		{"job.explore_ms", "ms"},
		{"job.campaign_ms", "ms"},
		{"job.evaluate_ms", "ms"},
		{"job.journal_writes", "count"},
		{"job.journal_bytes", "bytes"},
		{"job.p50_growth", "ratio"},
		{"pool.leases_granted", "count"},
		{"pool.lease_retries", "count"},
		{"pool.leases_expired", "count"},
		{"shard.checkpoints_written", "count"},
		{"resil.runs", "count"},
		{"trace_overhead_pct", "%"},
		{"host.ref_ms", "ms"},
	}...)
}()

// run is one benchmark invocation: its settings, its tallies and the
// metric values the workload fills in.
type run struct {
	seed    uint64
	budget  time.Duration
	trace   bool
	socetd  string
	state   string
	started time.Time

	attempted, failed int
	values            map[string]float64
	ref               hostRef // reference samples of this run
}

// workload runs one benchmark workload into r.
type workload func(r *run) error

var workloads = map[string]workload{
	"paper_flow":  paperFlow,
	"explore_gen": exploreGen,
	"daemon_jobs": daemonJobs,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper_flow, explore_gen or daemon_jobs")
	seed := flag.Uint64("seed", paperGoldenSeed, "workload seed (the same seed gives the same inputs)")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	socetd := flag.String("socetd", "", "prebuilt socetd binary (daemon_jobs)")
	state := flag.String("state", ".bench_build/state", "scratch directory for daemon state")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		socetd:  *socetd,
		state:   *state,
		started: time.Now(),
		values:  map[string]float64{},
	}
	if err := w(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, s := range r.specs() {
		fmt.Printf("%-32s %14.4f %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	if !r.trace {
		fmt.Printf("reference kernel: median %.3f ms over %d samples, scale %.4f; as measured:\n", r.ref.ms(), len(r.ref.arith), r.ref.scale())
		for _, name := range scaledTimings {
			fmt.Printf("  %-30s %14.4f\n", name, r.values[name])
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *run) specs() []metricSpec {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// scaledTimings are the end-to-end timings reported at the reference
// speed (see hostref.go): times are multiplied by the run's scale,
// work_per_s, a rate, is divided by it.
var scaledTimings = []string{"setup_s", "op_ms_p50", "op_ms_p90", "work_per_s"}

// result assembles the output object. End-to-end metrics must all be
// measured, and their timings are scaled to the reference speed;
// per-layer metrics a workload does not reach read zero.
func (r *run) result() (*result, error) {
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no op attempted")
	}
	if len(r.ref.arith) == 0 {
		return nil, fmt.Errorf("no reference sample taken")
	}
	res.Correct = r.failed == 0
	vals := maps.Clone(r.values)
	vals["host.ref_ms"] = r.ref.ms()
	if !r.trace {
		k := r.ref.scale()
		for _, name := range scaledTimings {
			if v, ok := vals[name]; ok {
				if name == "work_per_s" {
					v /= k
				} else {
					v *= k
				}
				vals[name] = v
			}
		}
	}
	for _, s := range r.specs() {
		v, ok := vals[s.name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("end-to-end metric %s not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, nil
}

// fail records a failed op or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// more reports whether another op fits the budget: the first op always
// runs, later ones only if the last op's duration still fits.
func (r *run) more(n int, last time.Duration) bool {
	return n == 0 || time.Since(r.started)+last <= r.budget
}

// setupMedian times samples rounds of batch back-to-back calls to build
// and returns the median seconds per call. Each round starts after a
// forced garbage collection, so no round pays for an earlier one's
// garbage, and is followed by a reference sample.
func (r *run) setupMedian(samples, batch int, build func() error) (float64, error) {
	secs := make([]float64, samples)
	for i := range secs {
		runtime.GC()
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			if err := build(); err != nil {
				return 0, err
			}
		}
		secs[i] = time.Since(t0).Seconds() / float64(batch)
		r.ref.sample(1)
	}
	return median(secs), nil
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opTimes records op latencies and derives the latency and batch-rate
// metrics from them.
type opTimes struct {
	ms    []float64 // per-op latency
	work  []float64 // work units per op (faults, points, jobs)
	batch int       // ops per work_per_s batch
}

// rates returns work per second of each complete batch of ops (a single
// partial batch when there are fewer ops than one batch).
func (o *opTimes) rates() []float64 {
	var out []float64
	for i := 0; i < len(o.ms); i += o.batch {
		j := i + o.batch
		if j > len(o.ms) {
			if len(out) > 0 {
				break
			}
			j = len(o.ms)
		}
		var w, t float64
		for k := i; k < j; k++ {
			w += o.work[k]
			t += o.ms[k]
		}
		out = append(out, w/(t/1000))
	}
	return out
}

// report fills the latency and throughput end-to-end metrics.
func (o *opTimes) report(r *run) {
	r.values["op_ms_p50"] = median(o.ms)
	r.values["op_ms_p90"] = quantile(o.ms, 0.9)
	r.values["work_per_s"] = median(o.rates())
}

// selfPeakRSSMiB is this process's peak resident set size.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// splitMix is the benchmark's own input generator: every seeded choice
// (fill seeds, window offsets, job order) comes from it.
type splitMix struct{ s uint64 }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) intn(n int) int { return int(r.next() % uint64(n)) }
