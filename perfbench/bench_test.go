package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is a seed no tuning run used.
const heldOutSeed = 0x7e57

// runWorkload runs one workload in-process and returns its result.
func runWorkload(t *testing.T, name string, seed uint64, trace bool, budget time.Duration, socetd string) *result {
	t.Helper()
	r := &run{
		seed:    seed,
		budget:  budget,
		trace:   trace,
		socetd:  socetd,
		state:   t.TempDir(),
		started: time.Now(),
		values:  map[string]float64{},
	}
	if err := workloads[name](r); err != nil {
		t.Fatalf("%s (seed %#x, trace %v): %v", name, seed, trace, err)
	}
	res, err := r.result()
	if err != nil {
		t.Fatalf("%s (seed %#x, trace %v): %v", name, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s (seed %#x, trace %v): %d of %d ops failed", name, seed, trace, res.Failed, res.Attempted)
	}
	checkEmitted(t, res, r.specs(), !trace)
	return res
}

// checkEmitted requires exactly the expected metric names, each with
// its unit, and positive values where positive is set.
func checkEmitted(t *testing.T, res *result, specs []metricSpec, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.name)
		case m.Unit != s.unit:
			t.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", s.name, m.Value)
		}
	}
}

// sameValues requires the named metrics to repeat exactly.
func sameValues(t *testing.T, a, b *result, names ...string) {
	t.Helper()
	for _, n := range names {
		if a.Metrics[n].Value != b.Metrics[n].Value {
			t.Errorf("%s differs between runs: %v vs %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
		}
	}
}

// countNames lists the per-layer metrics that are pure counts of work
// under the given prefixes.
func countNames(prefixes ...string) []string {
	var out []string
	for _, s := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(s.name, p) && (s.unit == "count" || s.unit == "ratio") {
				out = append(out, s.name)
			}
		}
	}
	return out
}

var quality = []string{"tat_cycles", "dft_cells", "fault_coverage_pct"}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layer     []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		specs  []metricSpec
	}{{b.E2E, endToEnd}, {b.Layer, perLayer}} {
		if len(c.listed) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(c.listed), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if c.listed[i].Name != s.name || c.listed[i].Unit != s.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, c.listed[i].Name, c.listed[i].Unit, s.name, s.unit)
			}
		}
	}
}

func TestPaperFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("paper_flow runs ATPG on both systems (about 20 s per op)")
	}
	// One op each: the golden seed checks the socet goldens and the
	// pinned fault-simulation counts inside the run.
	golden := runWorkload(t, "paper_flow", paperGoldenSeed, false, time.Second, "")
	if got := golden.Metrics["tat_cycles"].Value; got != 47022+2936 {
		t.Errorf("tat_cycles = %v, want %d", got, 47022+2936)
	}
	if got := golden.Metrics["dft_cells"].Value; got != 87+29 {
		t.Errorf("dft_cells = %v, want %d", got, 87+29)
	}
	runWorkload(t, "paper_flow", heldOutSeed, false, time.Second, "")

	a := runWorkload(t, "paper_flow", paperGoldenSeed, true, time.Second, "")
	b := runWorkload(t, "paper_flow", paperGoldenSeed, true, time.Second, "")
	sameValues(t, a, b, countNames("atpg.", "ccg.", "core.delta_", "fsim.verified", "fsim.unclaimed")...)
	if a.Metrics["fsim.verified_detected"].Value < a.Metrics["atpg.detected"].Value {
		t.Errorf("fault simulation confirms %v faults, ATPG claims %v", a.Metrics["fsim.verified_detected"].Value, a.Metrics["atpg.detected"].Value)
	}
}

func TestExploreGen(t *testing.T) {
	a := runWorkload(t, "explore_gen", paperGoldenSeed, false, 2*time.Second, "")
	b := runWorkload(t, "explore_gen", paperGoldenSeed, false, time.Second, "")
	sameValues(t, a, b, quality...)
	runWorkload(t, "explore_gen", heldOutSeed, false, time.Second, "")

	ta := runWorkload(t, "explore_gen", paperGoldenSeed, true, time.Second, "")
	tb := runWorkload(t, "explore_gen", paperGoldenSeed, true, time.Second, "")
	sameValues(t, ta, tb, countNames("ccg.", "core.", "explore.", "trans.")...)
	if ta.Metrics["atpg.faults"].Value != 0 {
		t.Errorf("explore_gen ran ATPG (%v faults)", ta.Metrics["atpg.faults"].Value)
	}
	if ta.Metrics["core.delta_evaluations"].Value == 0 {
		t.Errorf("explore_gen never took the delta path")
	}
}

func TestDaemonJobs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "socetd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/socetd").CombinedOutput(); err != nil {
		t.Fatalf("building socetd: %v\n%s", err, out)
	}
	a := runWorkload(t, "daemon_jobs", paperGoldenSeed, false, time.Second, bin)
	b := runWorkload(t, "daemon_jobs", paperGoldenSeed, false, time.Second, bin)
	sameValues(t, a, b, quality...)
	runWorkload(t, "daemon_jobs", heldOutSeed, false, time.Second, bin)

	tr := runWorkload(t, "daemon_jobs", paperGoldenSeed, true, time.Second, bin)
	for _, n := range []string{"pool.leases_granted", "job.journal_writes", "resil.runs", "explore.points_evaluated"} {
		if tr.Metrics[n].Value <= 0 {
			t.Errorf("traced daemon run reports %s = %v", n, tr.Metrics[n].Value)
		}
	}
}

func TestDaemonList(t *testing.T) {
	kinds := map[string]int{}
	for _, j := range daemonList(1) {
		if err := j.spec.Validate(); err != nil {
			t.Fatal(err)
		}
		kinds[j.kind]++
	}
	if kinds["explore"] != 8 || kinds["campaign"] != 4 || kinds["evaluate"] != 4 {
		t.Errorf("job mix %v, want 8 explore : 4 campaign : 4 evaluate", kinds)
	}
}
