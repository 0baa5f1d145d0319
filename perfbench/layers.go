package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// traceCap is the span ring size of a traced op: large enough that no
// span of one op is overwritten.
const traceCap = 1 << 17

// traced runs fn with obs enabled on a fresh registry and tracer and
// returns what the program recorded, plus the bytes fn allocated.
func traced(fn func() error) (counters map[string]int64, spans []obs.SpanRecord, allocMiB float64, err error) {
	tr, m := obs.Enable(traceCap)
	defer obs.Disable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	if tr.Dropped() > 0 {
		return nil, nil, 0, fmt.Errorf("span ring overflowed (%d dropped)", tr.Dropped())
	}
	return m.Snapshot(), tr.Records(), float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), err
}

// spanMs sums the durations of the spans with the given exact names.
func spanMs(spans []obs.SpanRecord, names ...string) float64 {
	var d time.Duration
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				d += s.Dur
			}
		}
	}
	return ms(d)
}

// layerTally accumulates per-layer work over the traced ops of a run.
type layerTally struct {
	ops      int
	counters map[string]int64
	spanMs   map[string]float64 // per-layer span time, summed over ops
	allocMiB float64
}

func newLayerTally() *layerTally {
	return &layerTally{counters: map[string]int64{}, spanMs: map[string]float64{}}
}

// add folds one traced op into the tally.
func (t *layerTally) add(counters map[string]int64, spans []obs.SpanRecord, allocMiB float64) {
	t.ops++
	for k, v := range counters {
		t.counters[k] += v
	}
	t.spanMs["evaluate"] += spanMs(spans, "evaluate")
	t.spanMs["evaluate/delta"] += spanMs(spans, "evaluate/delta")
	t.spanMs["ccg/build"] += spanMs(spans, "ccg/build")
	t.spanMs["sched"] += spanMs(spans, "sched", "sched/partial")
	t.spanMs["interconnect/sched"] += spanMs(spans, "interconnect/sched")
	t.allocMiB += allocMiB
}

// report sets the evaluation-layer metrics shared by every workload:
// span times are busy milliseconds per op, counts are totals over the
// traced ops.
func (t *layerTally) report(r *run) {
	if t.ops == 0 {
		return
	}
	per := float64(t.ops)
	r.values["core.evaluate_full_ms"] = t.spanMs["evaluate"] / per
	r.values["core.evaluate_delta_ms"] = t.spanMs["evaluate/delta"] / per
	r.values["ccg.build_ms"] = t.spanMs["ccg/build"] / per
	r.values["sched.schedule_ms"] = t.spanMs["sched"] / per
	r.values["sched.interconnect_ms"] = t.spanMs["interconnect/sched"] / per
	r.values["go.alloc_mb_per_op"] = t.allocMiB / per
	t.reportCounters(r)
}

// reportCounters sets the metrics read straight from obs counters.
func (t *layerTally) reportCounters(r *run) {
	c := t.counters
	r.values["core.evaluations"] = float64(c["core.evaluations"])
	r.values["core.delta_evaluations"] = float64(c["core.delta_evaluations"])
	if n := c["core.delta_evaluations"] + c["core.delta_fallbacks"]; n > 0 {
		r.values["core.delta_fallback_ratio"] = float64(c["core.delta_fallbacks"]) / float64(n)
	}
	r.values["ccg.searches"] = float64(c["ccg.searches"])
	r.values["ccg.relaxations"] = float64(c["ccg.relaxations"])
	r.values["ccg.reservation_conflicts"] = float64(c["ccg.reservation_conflicts"])
	r.values["explore.points_evaluated"] = float64(c["explore.points_evaluated"])
	r.values["trans.versions_built"] = float64(c["trans.versions_built"])
	r.values["pool.leases_granted"] = float64(c["serve.leases_granted"])
	r.values["pool.lease_retries"] = float64(c["serve.lease_retries"])
	r.values["pool.leases_expired"] = float64(c["serve.leases_expired"])
	r.values["job.journal_writes"] = float64(c["serve.journal_writes"])
	r.values["shard.checkpoints_written"] = float64(c["shard.checkpoints_written"])
	r.values["resil.runs"] = float64(c["resil.runs"])
}

// spanPrefixMs sums the durations of the spans whose names start with
// prefix.
func spanPrefixMs(spans []obs.SpanRecord, prefix string) float64 {
	var d time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.Dur
		}
	}
	return ms(d)
}

// reportPrepare sets the Prepare-layer metrics from the spans a traced
// core.Prepare emits: prepare, synth/<core>, hscan/<core> and
// versions/<core>.
func reportPrepare(r *run, spans []obs.SpanRecord) {
	r.values["synth.ms"] = spanPrefixMs(spans, "synth/")
	r.values["hscan.ms"] = spanPrefixMs(spans, "hscan/")
	r.values["trans.versions_ms"] = spanPrefixMs(spans, "versions/")
	r.values["core.prepare_ms"] = spanMs(spans, "prepare")
}
