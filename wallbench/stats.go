package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
)

// hist is a log-linear histogram of non-negative integers (nanoseconds,
// entry counts): 64 linear sub-buckets per power of two, so any
// quantile it reports is within 1.6% of the true sample. It never
// allocates after construction, which keeps per-call probes out of the
// allocation counts they sit next to.
type hist struct {
	counts [64 * 58]int64
	n      int64
	max    int64
}

const histSub = 6 // log2 of the sub-buckets per power of two

func histIndex(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(v>>(e-histSub)) & (1<<histSub - 1)
	return (e-histSub+1)<<histSub + sub
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) int64 {
	if i < 1<<histSub {
		return int64(i)
	}
	e := i>>histSub + histSub - 1
	sub := int64(i & (1<<histSub - 1))
	return (1<<histSub + sub) << (e - histSub)
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// mergeScaled adds o's samples to h, each multiplied by f: a bucket's
// samples land where its midpoint does, which keeps them within the
// histogram's resolution.
func (h *hist) mergeScaled(o *hist, f float64) {
	for i, c := range o.counts {
		if c != 0 {
			mid := float64(histLower(i)+histLower(i+1)) / 2
			h.counts[histIndex(int64(mid*f))] += c
		}
	}
	h.n += o.n
	if m := int64(float64(o.max) * f); m > h.max {
		h.max = m
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-th sample, interpolated by rank inside its
// bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			if hi > float64(h.max)+1 {
				hi = float64(h.max) + 1
			}
			return lo + (hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return float64(h.max)
}

// tail names the highest percentile that still has at least ten
// samples beyond it (p99.9 needs 10,000 samples), with its value.
func (h *hist) tail() (label string, value float64) {
	label, value = "max", float64(h.max)
	for _, c := range []struct {
		label string
		q     float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}, {"p99.999", 0.99999}} {
		if float64(h.n)*(1-c.q) >= 10 {
			label, value = c.label, h.quantile(c.q)
		}
	}
	return label, value
}

// goStats is a snapshot of the Go runtime counters a timed phase is
// charged with.
type goStats struct {
	mallocs, allocBytes uint64
	numGC               uint32
	pauseNS             [256]uint64 // runtime.MemStats.PauseNs ring
	gcCPU, totalCPU     float64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	st := goStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseNs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		st.totalCPU = samples[1].Value.Float64()
	}
	return st
}

// gcPauseP99 is the 99th-percentile stop-the-world GC pause between
// two snapshots (the newest 256 when more happened), in microseconds,
// or 0 when no collection ran.
func gcPauseP99(before, after goStats) float64 {
	n := int(after.numGC - before.numGC)
	if n > len(after.pauseNS) {
		n = len(after.pauseNS)
	}
	if n == 0 {
		return 0
	}
	p := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p = append(p, float64(after.pauseNS[(int(after.numGC)-1-i+256)%256]))
	}
	sort.Float64s(p)
	return p[int(math.Ceil(0.99*float64(n)))-1] / 1e3
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes,
// read without stopping the world.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}
