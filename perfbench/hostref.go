package main

import (
	"runtime"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts by
// tens of percent for minutes at a time, so two runs of the same code can
// differ more than any bound a timing metric could carry. Every run
// therefore also times a fixed reference kernel between its ops and
// reports its end-to-end timings at the reference speed: each is scaled
// by the kernel's nominal time over the run's median kernel time. A slow
// phase slows the kernel and the ops alike and cancels out; a change to
// the program moves the ops, and not the kernel, which lives in the
// benchmark. README.md gives the measurements behind the kernel's parts.

// The nominal times are the kernel parts' medians on a quiet 2-vCPU Xeon
// VM, so scaled timings read as milliseconds on that machine.
const (
	refArithNominalMs = 5.5
	refGraphNominalMs = 7.0
)

// refNode is a small heap object of the kernel's heap part.
type refNode struct {
	next [3]*refNode
	v    int
}

// The reference kernel is fixed work in two parts: integer arithmetic,
// which sees how fast the host runs instructions, and building, indexing
// and walking graphs of small heap objects, which also sees how fast it
// serves allocation, caches and memory. Each part returns a digest of its
// results, so none of the work can be optimised away.
const (
	refArithSteps = 2_000_000
	refGraphs     = 5 // graphs built per sample
	refNodes      = 10_000
)

// refArith is the kernel's arithmetic part: xorshift steps.
func refArith() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < refArithSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// refGraph is the kernel's heap part: one random graph of refNodes
// nodes with an index map, walked once.
func refGraph(seed uint64) uint64 {
	rng := splitMix{seed}
	ns := make([]*refNode, refNodes)
	for i := range ns {
		ns[i] = &refNode{v: i}
	}
	m := make(map[int]int, refNodes)
	for i, n := range ns {
		for k := range n.next {
			n.next[k] = ns[rng.intn(refNodes)]
		}
		m[i*7] = i
	}
	s := 0
	for _, n := range ns {
		for _, o := range n.next {
			s += o.v + m[o.v*7]
		}
	}
	return uint64(s)
}

// hostRef collects a run's reference samples.
type hostRef struct {
	// graphs adds the heap part to each sample. A workload whose ops are
	// interleaved with samples sets it; one whose op outlasts the run
	// does not, because the heap part's speed moves within seconds, and
	// samples taken only before and after the op would miss what it met.
	graphs       bool
	arith, graph []float64 // per sample, ms
	digest       uint64    // the kernel's results, kept so none is optimised away
}

// sample times n samples of the reference kernel. A sample is the time
// of its arithmetic part plus, with graphs, that of each graph; a forced
// garbage collection, not timed, comes before each part, so no sample
// pays for the workload's garbage and no part's own allocation starts a
// cycle however large the workload's heap is.
func (h *hostRef) sample(n int) {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		h.digest += refArith()
		h.arith = append(h.arith, ms(time.Since(t0)))
		if !h.graphs {
			continue
		}
		var d time.Duration
		for g := 0; g < refGraphs; g++ {
			runtime.GC()
			t0 = time.Now()
			h.digest += refGraph(uint64(g))
			d += time.Since(t0)
		}
		h.graph = append(h.graph, ms(d))
	}
}

// ms is the median kernel sample.
func (h *hostRef) ms() float64 {
	sum := append([]float64(nil), h.arith...)
	for i, g := range h.graph {
		sum[i] += g
	}
	return median(sum)
}

// scale is the factor that brings a time measured in this run to the
// reference speed: below 1 when the host ran slow.
func (h *hostRef) scale() float64 {
	nominal := refArithNominalMs
	if h.graphs {
		nominal += refGraphNominalMs
	}
	return nominal / h.ms()
}
