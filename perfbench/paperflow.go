package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fsim"
	"repro/internal/gate"
	"repro/internal/soc"
	"repro/internal/systems"
)

// paperGoldenSeed is atpg's default fill seed: at it the flow must
// reproduce the committed cmd/socet goldens.
const paperGoldenSeed = 0x5eed

// paperGolden is what cmd/socet/testdata/system{1,2}.golden record,
// plus the number of faults fault simulation confirms for each core's
// delivered vectors.
var paperGolden = struct {
	vectors, verified map[string]int
	tat, cells        [2]int
	cands             [2]int
}{
	vectors:  map[string]int{"CPU": 94, "PREPROCESSOR": 97, "DISPLAY": 674, "GRAPHICS": 87, "GCD": 57, "X25": 86},
	verified: map[string]int{"CPU": 12266, "PREPROCESSOR": 12777, "DISPLAY": 4702, "GRAPHICS": 9357, "GCD": 4188, "X25": 10385},
	tat:      [2]int{47022, 2936},
	cells:    [2]int{87, 29},
	cands:    [2]int{3, 3},
}

// paperChips builds fresh copies of the paper's two example systems
// (core.Prepare mutates cores, so every op needs its own).
func paperChips() ([]*soc.Chip, error) {
	chips := []*soc.Chip{systems.System1(), systems.System2()}
	for _, ch := range chips {
		if err := ch.Validate(); err != nil {
			return nil, err
		}
	}
	return chips, nil
}

// paperOutcome is one op's product: per system, the prepared flow, its
// evaluation and the explorer's candidate moves.
type paperOutcome struct {
	flows []*core.Flow
	evals []*core.Evaluation
	cands [][]explore.Step
	// caught is, per core, which faults of its full fault list the
	// delivered vectors detect; check fills it.
	caught map[string][]bool
}

// splitPrep is what a split Prepare did: each core's raw (uncompacted)
// patterns and the time atpg.Compact took on them.
type splitPrep struct {
	raw     map[string][]gate.Pattern
	compact map[string]time.Duration
}

func newSplitPrep() *splitPrep {
	return &splitPrep{raw: map[string][]gate.Pattern{}, compact: map[string]time.Duration{}}
}

// compactFlow compacts every core's raw patterns with atpg.Compact, as
// atpg.GenerateFor does with compaction on, and timed on its own.
func (sp *splitPrep) compactFlow(f *core.Flow) {
	for _, c := range f.Chip.TestableCores() {
		art := f.Cores[c.Name]
		res := art.ATPG
		sp.raw[c.Name] = res.Patterns
		if len(res.Patterns) > 1 {
			n := art.Synth.Netlist
			t0 := time.Now()
			res.Patterns = atpg.Compact(n, res.Patterns, n.Faults())
			sp.compact[c.Name] += time.Since(t0)
		}
		res.Stats.Vectors = len(res.Patterns)
		c.Vectors = res.Stats.Vectors
	}
}

// paperOp takes both systems through the socet path: Prepare, Evaluate,
// explore.Candidates. With sp non-nil the Prepare is split: core.Prepare
// runs with compaction off and sp.compactFlow then compacts, so
// generation and compaction can be timed apart.
func paperOp(chips []*soc.Chip, fill uint64, sp *splitPrep) (*paperOutcome, error) {
	out := &paperOutcome{}
	opts := core.Options{ATPG: &atpg.Options{FillSeed: fill, Compact: sp == nil}}
	for _, ch := range chips {
		f, err := core.Prepare(ch, &opts)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", ch.Name, err)
		}
		if sp != nil {
			sp.compactFlow(f)
		}
		e, err := f.EvaluateCtx(context.Background())
		if err != nil {
			return nil, fmt.Errorf("evaluate %s: %w", ch.Name, err)
		}
		out.flows = append(out.flows, f)
		out.evals = append(out.evals, e)
		out.cands = append(out.cands, explore.Candidates(f, e, explore.Cost{W1: 1}))
	}
	return out, nil
}

// paperTotals are the op's deterministic quality numbers.
type paperTotals struct {
	faults, detected, untestable, aborted, vectors int
	tat, cells                                     int
	perCore                                        map[string]int // vectors
}

func (o *paperOutcome) totals() paperTotals {
	t := paperTotals{perCore: map[string]int{}}
	for i, f := range o.flows {
		for _, c := range f.Chip.TestableCores() {
			st := f.Cores[c.Name].ATPG.Stats
			t.faults += st.Faults
			t.detected += st.Detected
			t.untestable += st.Untestable
			t.aborted += st.Aborted
			t.vectors += st.Vectors
			t.perCore[c.Name] = c.Vectors
		}
		t.tat += o.evals[i].TAT
		t.cells += o.evals[i].ChipDFTCells()
	}
	return t
}

// detects fault-simulates pats against n's full fault list and reports
// which faults they detect.
func detects(n *gate.Netlist, pats []gate.Pattern) ([]bool, int, error) {
	fr, err := fsim.Combinational(n, pats, n.Faults())
	if err != nil {
		return nil, 0, err
	}
	hit := make([]bool, len(fr.DetectedBy))
	count := 0
	for fi, by := range fr.DetectedBy {
		if by >= 0 {
			hit[fi] = true
			count++
		}
	}
	return hit, count, nil
}

// check validates one op and returns the number of faults fault
// simulation confirms. Every delivered test set is re-simulated with
// fsim.Combinational against the core's full fault list and must detect
// at least as many faults as ATPG claims. It may detect more: ATPG only
// drops faults later in its list, so a fault it aborted (or wrongly
// called untestable) that a later pattern happens to detect is never
// credited. This is a check of counts: ATPG does not say which faults it
// credits, so at other seeds than the golden one a lost detection can
// hide behind an unclaimed one (checkCompaction, on the traced run,
// checks compaction fault by fault). At the golden seed the op must also
// match the committed socet goldens and the pinned simulated counts
// exactly.
func (o *paperOutcome) check(fill uint64) (verified int, problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	o.caught = map[string][]bool{}
	for i, f := range o.flows {
		for _, c := range f.Chip.TestableCores() {
			art := f.Cores[c.Name]
			st := art.ATPG.Stats
			if st.Faults != st.Detected+st.Untestable+st.Aborted {
				bad("%s: %d faults != %d detected + %d untestable + %d aborted", c.Name, st.Faults, st.Detected, st.Untestable, st.Aborted)
			}
			if st.Vectors != len(art.ATPG.Patterns) || c.Vectors != st.Vectors {
				bad("%s: vector counts disagree (stats %d, patterns %d, core %d)", c.Name, st.Vectors, len(art.ATPG.Patterns), c.Vectors)
			}
			hit, got, err := detects(art.Synth.Netlist, art.ATPG.Patterns)
			if err != nil {
				bad("%s: fault simulation: %v", c.Name, err)
				continue
			}
			o.caught[c.Name] = hit
			verified += got
			if got < st.Detected {
				bad("%s: delivered vectors detect %d faults, ATPG claims %d", c.Name, got, st.Detected)
			}
			if fill == paperGoldenSeed && (c.Vectors != paperGolden.vectors[c.Name] || got != paperGolden.verified[c.Name]) {
				bad("%s: %d vectors detecting %d faults, golden %d detecting %d", c.Name, c.Vectors, got,
					paperGolden.vectors[c.Name], paperGolden.verified[c.Name])
			}
		}
		if fill == paperGoldenSeed {
			e := o.evals[i]
			if e.TAT != paperGolden.tat[i] || e.ChipDFTCells() != paperGolden.cells[i] || len(o.cands[i]) != paperGolden.cands[i] {
				bad("%s: TAT %d, DFT %d cells, %d candidates; golden %d, %d, %d", f.Chip.Name,
					e.TAT, e.ChipDFTCells(), len(o.cands[i]), paperGolden.tat[i], paperGolden.cells[i], paperGolden.cands[i])
			}
		}
	}
	return verified, problems
}

// Building the two chips takes about a millisecond, so one set-up
// sample is paperSetupBuilds builds timed together, and setup_s is the
// median of paperSetups samples taken before the first op. As many
// reference samples follow each op as the set-up took.
const (
	paperSetups      = 25
	paperSetupBuilds = 100
)

func paperFlow(r *run) error {
	fill := r.seed
	if fill == 0 {
		fill = paperGoldenSeed // atpg treats 0 as its default seed
	}
	setup, err := r.setupMedian(paperSetups, paperSetupBuilds, func() error {
		_, err := paperChips()
		return err
	})
	if err != nil {
		return err
	}
	r.values["setup_s"] = setup
	if r.trace {
		return paperTraced(r, fill)
	}
	times := &opTimes{batch: 1}
	var first *paperTotals
	var last time.Duration
	for n := 0; r.more(n, last); n++ {
		chips, err := paperChips()
		if err != nil {
			return err
		}
		t0 := time.Now()
		out, err := paperOp(chips, fill, nil)
		last = time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("op %d: %v", n, err)
			continue
		}
		tot := out.totals()
		_, problems := out.check(fill)
		if first == nil {
			first = &tot
		} else if tot.tat != first.tat || tot.cells != first.cells || tot.detected != first.detected || tot.vectors != first.vectors {
			problems = append(problems, "op is not deterministic: totals differ from the first op")
		}
		if len(problems) > 0 {
			r.fail("op %d: %v", n, problems)
			continue
		}
		times.ms = append(times.ms, ms(last))
		times.work = append(times.work, float64(tot.faults))
		r.ref.sample(paperSetups)
	}
	if first == nil || len(times.ms) == 0 {
		return fmt.Errorf("no op succeeded")
	}
	times.report(r)
	r.values["peak_rss_mb"] = selfPeakRSSMiB()
	r.values["tat_cycles"] = float64(first.tat)
	r.values["dft_cells"] = float64(first.cells)
	r.values["fault_coverage_pct"] = 100 * float64(first.detected) / float64(first.faults)
	return nil
}

// checkCompaction fault-simulates each core's raw patterns and requires
// the delivered (compacted) vectors, which check simulated, to detect
// every fault the raw patterns detect.
func checkCompaction(o *paperOutcome, sp *splitPrep) (problems []string) {
	for _, f := range o.flows {
		for _, c := range f.Chip.TestableCores() {
			raw, _, err := detects(f.Cores[c.Name].Synth.Netlist, sp.raw[c.Name])
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: fault simulation: %v", c.Name, err))
				continue
			}
			caught := o.caught[c.Name]
			lost := 0
			for fi, hit := range raw {
				if hit && (fi >= len(caught) || !caught[fi]) {
					lost++
				}
			}
			if lost > 0 {
				problems = append(problems, fmt.Sprintf("%s: compaction loses %d faults the raw patterns detect", c.Name, lost))
			}
		}
	}
	return problems
}

// samePatterns reports whether two ops delivered identical vectors for
// every core.
func samePatterns(a, b *paperOutcome) bool {
	for i, f := range a.flows {
		for name, art := range f.Cores {
			other := b.flows[i].Cores[name]
			if (art.ATPG == nil) != (other.ATPG == nil) {
				return false
			}
			if art.ATPG != nil && !reflect.DeepEqual(art.ATPG.Patterns, other.ATPG.Patterns) {
				return false
			}
		}
	}
	return true
}

// paperTraced runs two split-Prepare ops over the same inputs, the first
// with obs off and the second with obs on, so their latency ratio is the
// trace overhead. The traced op reports every ATPG, fsim and Prepare
// layer; both ops must pass check and deliver the same vectors, and
// compaction must keep every raw detection.
func paperTraced(r *run, fill uint64) error {
	chips, err := paperChips()
	if err != nil {
		return err
	}
	t0 := time.Now()
	plain, err := paperOp(chips, fill, newSplitPrep())
	plainDur := time.Since(t0)
	r.attempted++
	if err != nil {
		return err
	}
	if chips, err = paperChips(); err != nil {
		return err
	}
	sp := newSplitPrep()
	var out *paperOutcome
	var tracedDur time.Duration
	counters, spans, alloc, err := traced(func() error {
		t0 := time.Now()
		var err error
		out, err = paperOp(chips, fill, sp)
		tracedDur = time.Since(t0)
		return err
	})
	r.attempted++
	if err != nil {
		return err
	}
	t0 = time.Now()
	verified, problems := out.check(fill)
	verifyDur := time.Since(t0)
	problems = append(problems, checkCompaction(out, sp)...)
	if _, p := plain.check(fill); len(p) > 0 {
		r.fail("untraced op: %v", p)
	}
	if !samePatterns(plain, out) {
		problems = append(problems, "traced op delivers other vectors than the untraced one")
	}
	if len(problems) > 0 {
		r.fail("traced op: %v", problems)
	}

	lt := newLayerTally()
	lt.add(counters, spans, alloc)
	lt.report(r)
	reportPrepare(r, spans)
	tot := out.totals()
	var gen, compact, maxCore float64 // ms
	rawPatterns := 0
	for _, c := range paperCores {
		g, k := spanMs(spans, "atpg/"+c), ms(sp.compact[c])
		gen += g
		compact += k
		maxCore = max(maxCore, g+k)
		rawPatterns += len(sp.raw[c])
		r.values["atpg.generate_ms."+c] = g
		r.values["atpg.compact_ms."+c] = k
	}
	r.values["atpg.generate_ms"] = gen
	r.values["atpg.compact_ms"] = compact
	r.values["atpg.max_core_ms"] = maxCore
	r.values["atpg.implications"] = float64(counters["atpg.implications"])
	r.values["atpg.implications_per_s"] = float64(counters["atpg.implications"]) / (gen / 1000)
	r.values["atpg.backtracks"] = float64(counters["atpg.backtracks"])
	r.values["atpg.faults"] = float64(tot.faults)
	r.values["atpg.detected"] = float64(tot.detected)
	r.values["atpg.untestable"] = float64(tot.untestable)
	r.values["atpg.aborted"] = float64(tot.aborted)
	r.values["atpg.abort_ratio"] = float64(tot.aborted) / float64(tot.faults)
	r.values["atpg.raw_patterns"] = float64(rawPatterns)
	r.values["atpg.vectors"] = float64(tot.vectors)
	r.values["atpg.compact_keep_ratio"] = float64(tot.vectors) / float64(rawPatterns)
	r.values["fsim.verify_ms"] = ms(verifyDur)
	r.values["fsim.verified_detected"] = float64(verified)
	r.values["fsim.unclaimed_detected"] = float64(verified - tot.detected)
	r.values["trace_overhead_pct"] = 100 * (tracedDur.Seconds()/plainDur.Seconds() - 1)
	return nil
}
