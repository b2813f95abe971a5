package main

import (
	"strconv"
	"time"
)

// A shared virtual machine's speed drifts by half or more within a
// minute: a fixed loop of map operations ran anywhere from 750 to 1400
// times per half second on a 2-vCPU Intel Xeon VM. A raw wall time
// measures that drift as much as the program. So every end-to-end
// timing is taken on a reference clock instead: between steps of the
// simulation the benchmark runs a fixed piece of its own work for a
// short slice, and the rate it reaches, against a nominal rate, is the
// machine's current speed. Workload wall time between two slices is
// scaled by the speed around it, so a reference second is the time the
// workload would take on a machine that runs the reference at the
// nominal rate. The slices themselves are cut out of every timing,
// end-to-end and per-layer; per-layer timings are not scaled.
//
// The reference imitates what the simulation spends its time on: a
// goroutine handoff over an unbuffered channel (the scheduler's task
// switch), map reads and writes over a few thousand string keys (the
// store), and byte formatting (the protocol). It allocates nothing, so
// it does not show in the allocation or heap metrics. One pair of
// goroutines runs it on the caller, as the stepping loop drives a
// scheduler. This holds for kv-sharded too: on a 2-vCPU VM, a reference
// that ran a pair or a loop per shard on goroutines of its own moved
// by itself from run to run (its placement on the two processors
// varies), while one pair on the caller tracked all three workloads.

const (
	refEvery = 40 * time.Millisecond // workload time between slices
	refSlice = 5 * time.Millisecond  // length of one slice
	refKeys  = 8192                  // keys in the map (a power of two)
	refTurns = 20                    // handoffs in one unit of reference work
)

// refNominal is the nominal rate of the reference, in units of work
// per second: about the median rate on a 2-vCPU Intel Xeon VM.
const refNominal = 45000.0

// refPair is one pair of goroutines that hand the reference work back
// and forth.
type refPair struct {
	ping, pong chan struct{}
	m          map[string]int
	keys       []string
	buf        []byte
	i          uint32
}

func newRefPair() *refPair {
	p := &refPair{ping: make(chan struct{}), pong: make(chan struct{}), m: make(map[string]int, refKeys), buf: make([]byte, 0, 64)}
	for i := 0; i < refKeys; i++ {
		k := "ref:" + strconv.Itoa(i*7919)
		p.keys = append(p.keys, k)
		p.m[k] = i
	}
	go func() {
		for range p.ping {
			p.turn()
			p.pong <- struct{}{}
		}
	}()
	return p
}

// turn is one side's share of the work: a map read and write and a
// formatted line.
func (p *refPair) turn() {
	k := p.keys[p.i*2654435761%refKeys]
	p.i++
	v := p.m[k] + 1
	p.m[k] = v
	p.buf = strconv.AppendInt(append(append(p.buf[:0], '$'), k...), int64(v), 10)
}

// run does units of reference work until refSlice has passed since t0
// and returns how many it did.
func (p *refPair) run(t0 time.Time) int {
	n := 0
	for time.Since(t0) < refSlice {
		p.unit()
		n++
	}
	return n
}

// unit is one unit of reference work.
func (p *refPair) unit() {
	for j := 0; j < refTurns; j++ {
		p.ping <- struct{}{}
		<-p.pong
		p.turn()
	}
}

// refMeter runs the reference and keeps the speed of every slice.
type refMeter struct {
	pair   *refPair
	paused time.Duration // wall time spent in slices so far
	last   time.Time     // when the last slice ended
	log    []float64     // every slice's rate over the nominal rate
}

// ref is the process's one reference; startRef sets it going.
var ref refMeter

// startRef builds the reference the first time it is called.
func startRef() {
	if ref.pair == nil {
		ref.pair, ref.log = newRefPair(), make([]float64, 0, 4096)
	}
}

// due reports whether the workload has run long enough since the last
// slice to take the next one.
func (m *refMeter) due() bool { return time.Since(m.last) >= refEvery }

// slice runs the reference for refSlice and logs its speed.
func (m *refMeter) slice() {
	t0 := time.Now()
	units := m.pair.run(t0)
	m.last = time.Now()
	took := m.last.Sub(t0)
	m.paused += took
	m.log = append(m.log, float64(units)/took.Seconds()/refNominal)
}

// refSpan is a stretch of workload time between two slices.
type refSpan struct {
	work  time.Time // start, on the work clock
	first int       // the opening slice's index in the log
}

// open takes a slice and starts a span after it.
func (m *refMeter) open() refSpan {
	m.slice()
	return refSpan{work: workNow(), first: len(m.log) - 1}
}

// machineSpeed is the machine's speed over a span, from the slices
// that open and close it and those inside it.
type machineSpeed struct {
	// mean is their mean: the reference's throughput over the span.
	// A stall of the host (the virtual CPU descheduled) slows it as it
	// slows the workload's throughput and its latency tail. It scales
	// durations, throughput and req_wall_us_p99.
	mean float64
	// median is a typical slice, which a stall or a garbage
	// collection that hits one slice does not move, as it does not
	// move the typical request. It scales req_wall_us_p50.
	median float64
}

// close takes a slice and returns the span's workload time and the
// machine's speed over it. Workload time times speed is the span's
// length on the reference clock. The returned span starts where this
// one ends.
func (m *refMeter) close(s refSpan) (work time.Duration, sp machineSpeed, next refSpan) {
	end := workNow()
	m.slice()
	next = refSpan{work: end, first: len(m.log) - 1}
	return end.Sub(s.work), machineSpeed{mean: mean(m.log[s.first:]), median: median(m.log[s.first:])}, next
}

// workNow is the wall clock with the reference slices cut out.
func workNow() time.Time { return time.Now().Add(-ref.paused) }
