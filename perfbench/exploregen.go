package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/flowcmd"
	"repro/internal/proptest"
	"repro/internal/socgen"
)

// The explore_gen chip is one fixed 64-core RandomDAG socgen chip,
// prepared with flowcmd.GenVectorOverride (no ATPG). The seed picks the
// op list: genWindows windows of genWindow consecutive selections at
// seeded offsets into its (capped) design space. The chip is fixed
// because 64-core chips drawn from different generator seeds differ in
// evaluation cost by up to 2x, which would drown any code change in
// seed-to-seed spread.
const (
	genChipSeed  = 0x5eed
	genCores     = 64
	genWindow    = 32      // selections per op
	genWindows   = 48      // distinct windows in one seed's op list
	genMaxPoints = 1 << 50 // cap far above any window offset; keeps the count overflow-free
	// setup_s is the median of genSetups samples, each the mean of
	// genSetupBuilds back-to-back set-ups (about 50 ms each).
	genSetups      = 15
	genSetupBuilds = 3
	genBatch       = 8 // ops per work_per_s batch
	genRefEvery    = 2 // ops per reference sample
)

// genFlow generates and prepares the explore_gen chip.
func genFlow() (*core.Flow, error) {
	ch, err := socgen.Generate(socgen.Params{Seed: genChipSeed, Cores: genCores, Topology: socgen.RandomDAG})
	if err != nil {
		return nil, err
	}
	return core.Prepare(ch, flowcmd.GenVectorOverride(ch))
}

// genOp is one op: a single-worker enumeration of one window with a
// fresh evaluation cache, the shape of one `tradeoff -gen` shard unit.
func genOp(f *core.Flow, first int) ([]explore.Point, error) {
	return explore.EnumerateCtx(context.Background(), f, explore.Options{
		Workers:   1,
		Cache:     explore.NewCache(),
		MaxPoints: genMaxPoints,
		First:     first,
		Count:     genWindow,
	})
}

// genList is one seed's op list: window offsets plus, per window, which
// point the correctness check re-evaluates.
type genList struct {
	first, sample []int
}

func newGenList(seed uint64, space int) genList {
	rng := splitMix{seed}
	l := genList{first: make([]int, genWindows), sample: make([]int, genWindows)}
	for i := range l.first {
		l.first[i] = rng.intn(space - genWindow + 1)
		l.sample[i] = rng.intn(genWindow)
	}
	return l
}

// windowStat is a window's deterministic quality: summed TAT and chip
// DFT cells over its points, and how many (point, core) pairs got a
// complete test schedule.
type windowStat struct {
	tat, cells, scheduled, cores int
}

func statOf(f *core.Flow, pts []explore.Point) windowStat {
	var s windowStat
	n := len(f.Chip.TestableCores())
	for _, p := range pts {
		s.tat += p.TAT
		s.cells += p.ChipCells
		s.scheduled += len(p.Eval.Sched.Cores)
		s.cores += n
	}
	return s
}

// checkWindow re-evaluates the window's sampled point with a full
// (non-delta) evaluation; it must equal the point the op produced.
func checkWindow(f *core.Flow, pts []explore.Point, sample int) error {
	if len(pts) != genWindow {
		return fmt.Errorf("window has %d points, want %d", len(pts), genWindow)
	}
	p := pts[sample]
	full, err := f.EvaluateSelection(p.Selection)
	if err != nil {
		return fmt.Errorf("full evaluation: %w", err)
	}
	if full.TAT != p.TAT || full.ChipDFTCells() != p.ChipCells {
		return fmt.Errorf("point %s: op gives TAT %d / %d cells, full evaluation %d / %d", p.Label(), p.TAT, p.ChipCells, full.TAT, full.ChipDFTCells())
	}
	if err := proptest.EqualEvaluations(full, p.Eval); err != nil {
		return fmt.Errorf("point %s: %w", p.Label(), err)
	}
	return nil
}

func exploreGen(r *run) error {
	r.ref.graphs = true
	var f *core.Flow
	setup, err := r.setupMedian(genSetups, genSetupBuilds, func() error {
		var err error
		f, err = genFlow()
		return err
	})
	if err != nil {
		return err
	}
	list := newGenList(r.seed, explore.SelectionSpace(f, genMaxPoints))
	stats := make([]*windowStat, genWindows)
	// visit checks one op of window w; the first op of each window also
	// runs the full-evaluation check, later ones must repeat its stat.
	visit := func(w int, pts []explore.Point) {
		s := statOf(f, pts)
		if prev := stats[w]; prev != nil {
			if s != *prev {
				r.fail("window %d is not deterministic: %+v then %+v", w, *prev, s)
			}
			return
		}
		stats[w] = &s
		if err := checkWindow(f, pts, list.sample[w]); err != nil {
			r.fail("window %d: %v", w, err)
		}
	}
	if r.trace {
		if err := genTraced(r, f, list, visit); err != nil {
			return err
		}
	} else {
		times := &opTimes{batch: genBatch}
		var last time.Duration
		for n := 0; r.more(n, last); n++ {
			w := n % genWindows
			t0 := time.Now()
			pts, err := genOp(f, list.first[w])
			last = time.Since(t0)
			r.attempted++
			if err != nil {
				r.fail("op %d: %v", n, err)
				continue
			}
			times.ms = append(times.ms, ms(last))
			times.work = append(times.work, float64(len(pts)))
			visit(w, pts)
			if n%genRefEvery == genRefEvery-1 {
				r.ref.sample(1)
			}
		}
		if len(times.ms) == 0 {
			return fmt.Errorf("no op succeeded")
		}
		times.report(r)
	}
	// Quality covers the whole op list, however many ops the budget fit.
	var sum windowStat
	for w, s := range stats {
		if s == nil {
			pts, err := genOp(f, list.first[w])
			if err != nil {
				return err
			}
			visit(w, pts)
			s = stats[w]
		}
		sum.tat += s.tat
		sum.cells += s.cells
		sum.scheduled += s.scheduled
		sum.cores += s.cores
	}
	r.values["setup_s"] = setup
	r.values["peak_rss_mb"] = selfPeakRSSMiB()
	r.values["tat_cycles"] = float64(sum.tat) / genWindows
	r.values["dft_cells"] = float64(sum.cells) / genWindows
	r.values["fault_coverage_pct"] = 100 * float64(sum.scheduled) / float64(sum.cores)
	return nil
}

// genTraced prepares the chip once more under obs, then runs every
// window of the op list twice, untraced and traced; the latency ratio of
// the pairs is the trace overhead.
func genTraced(r *run, f *core.Flow, list genList, visit func(int, []explore.Point)) error {
	var tf *core.Flow
	prepCounters, prepSpans, _, err := traced(func() error {
		var err error
		tf, err = genFlow()
		return err
	})
	if err != nil {
		return err
	}
	if tf.Fingerprint() != f.Fingerprint() {
		r.fail("traced prepare disagrees with the untraced one")
	}
	lt := newLayerTally()
	var plain, withObs []float64
	for w, first := range list.first {
		t0 := time.Now()
		pts, err := genOp(f, first)
		plain = append(plain, ms(time.Since(t0)))
		r.attempted++
		if err != nil {
			return err
		}
		visit(w, pts)
		counters, spans, alloc, err := traced(func() error {
			t0 = time.Now()
			var err error
			pts, err = genOp(f, first)
			withObs = append(withObs, ms(time.Since(t0)))
			return err
		})
		r.attempted++
		if err != nil {
			return err
		}
		visit(w, pts)
		lt.add(counters, spans, alloc)
	}
	lt.report(r)
	reportPrepare(r, prepSpans)
	r.values["trans.versions_built"] = float64(prepCounters["trans.versions_built"])
	r.values["trace_overhead_pct"] = 100 * (median(withObs)/median(plain) - 1)
	return nil
}
