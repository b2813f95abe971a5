// Command wallbench measures what the Go process really spends — wall
// time, allocations, heap and GC — while the simulated MVEDSUA service
// answers kvstore traffic, end to end and per layer.
//
// It drives the repository's public APIs (sim, vos, core, dsu,
// apps/kvstore, apptest) from outside. Three seeded closed-loop
// workloads each fill their keyspace before timing, run a fixed
// deterministic prefix of work (whose virtual-time results and
// fingerprint depend only on the seed), and keep going until --seconds
// of wall time have been measured:
//
//   - kv-duo: kvstore 2.0.0 leads and 2.0.1 follows in the
//     outdated-leader stage (the paper's Table 2 Mvedsua-2 row); this is
//     where multi-version execution overhead lives.
//   - kv-update: a 64k-key store under a 50/50 mix walks the update
//     train 2.0.0 -> 2.0.3 with the flight recorder in metrics mode
//     (Figures 6 and 7); large state, fork, state transform and the
//     whole core lifecycle.
//   - kv-sharded: 8 native kvstore groups on 2 shards of the sharded
//     scheduler, with no monitor and no recorder; the epoch barrier and
//     real goroutine parallelism.
//
// Every reply is checked against the client's reference model. With
// --trace 1 the run instead measures an untraced and a traced pass of
// the workload, the recorder-mode cost ladder on kv-duo, and two
// micro-probes, and reports the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash wallbench/run.sh --workload kv-duo --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/core"
	"mvedsua/internal/ringbuf"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// setupRuns is how many times at least a trace-0 run builds its
// workload; setup_s is the median.
const setupRuns = 9

// setupLimit bounds one setup in virtual time.
const setupLimit = 30 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: kv-duo, kv-update or kv-sharded")
	seed := flag.Int64("seed", 1, "seed for every generated key, value and operation")
	secs := flag.Float64("seconds", 10, "wall seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	flag.Parse()
	sp, err := specFor(*workload)
	if err != nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*secs * float64(time.Second))
	runtime.GOMAXPROCS(sp.procs)
	ctx := runnerContext(*seed)
	ctxLine, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", ctxLine)

	var res result
	if *trace == 0 {
		res, err = runEndToEnd(sp, *seed, budget)
	} else {
		spans := ""
		if *spansDir != "" {
			spans = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed))
		}
		res, err = runTraced(sp, *seed, budget, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the last stdout line is its JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics { // maporder: ok — sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
}

// runner is the runner context recorded with every result.
type runner struct {
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func runnerContext(seed int64) runner {
	c := runner{
		Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				c.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return c
}

// setup builds a world and steps it until its keyspace is filled and
// the workload's steady state is reached. setup and measure are the
// stepping loop: they advance the world one step of virtual time at a
// time and run its orchestration and probes in between, when no
// simulated task is running.
func setup(sp spec, seed int64, traced bool) (*world, time.Duration, error) {
	runtime.GC() // start from a clean heap, not the previous world's garbage
	startRef()
	span := ref.open()
	w := buildWorld(sp, seed, traced)
	for !w.ready() {
		if ref.due() {
			ref.slice()
		}
		if err := w.advance(); err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		w.tick()
		if w.now() > setupLimit {
			return nil, 0, fmt.Errorf("%s setup did not finish in %v of virtual time", sp.name, setupLimit)
		}
	}
	work, speed, _ := ref.close(span)
	return w, time.Duration(float64(work) * speed.mean), nil
}

// statWindow is the length, in workload wall time, of the windows a
// steady workload's timed phase is cut into; its throughput and
// latency are the medians over them, which keeps a brief stall of the
// shared machine from moving the run's result.
const statWindow = 250 * time.Millisecond

// phase is what one timed phase measured.
type phase struct {
	wall    time.Duration // wall time, the reference slices left out
	refWall time.Duration // the same on the reference clock
	ok, bad int64
	// lat and latTail hold the latency of every checked reply on the
	// reference clock, scaled for the median and for the tail.
	lat, latTail hist
	windows      []windowStats
	before       goStats
	after        goStats
	heapPeak     uint64
	dispBase     int64 // dispatches when timing started
	dispEnd      int64
	virtStart    time.Duration
	fp           fingerprint
	epochNS      hist // wall time of each step (a kv-sharded epoch)
	epochs       int64
}

// windowStats is one window's throughput and latency.
type windowStats struct {
	reqPerS, p50NS, p99NS float64
}

// fingerprint identifies the fixed prefix of a run in virtual terms;
// the traced pass must reproduce it exactly.
type fingerprint struct {
	VirtualNS  int64
	Dispatches int64
	Requests   int64
	LatencyNS  int64 // sum over the prefix's requests
	MaxLatNS   int64
}

// measure runs the timed phase: the fixed prefix first, then until
// budget of wall time has passed.
func measure(w *world, budget time.Duration) (*phase, error) {
	ph := &phase{virtStart: w.now()}
	w.timing = true
	for _, p := range w.probes {
		p.on = true
	}
	for _, cl := range w.clients {
		cl.measuring = true
		if w.train == nil {
			cl.winEnd = ph.virtStart + w.sp.window
		}
	}
	runtime.GC()
	heap := newHeapSampler()
	ph.before = readGoStats()
	ph.dispBase = w.dispatches()
	start, workStart := time.Now(), workNow()
	span, winOK := ref.open(), int64(0)
	var winLat hist
	fpTaken := false
	for {
		if ref.due() {
			ref.slice()
		}
		t := workNow()
		if err := w.advance(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.sp.name, err)
		}
		now := workNow()
		ph.epochNS.add(int64(now.Sub(t)))
		ph.epochs++
		heap.sample()
		w.tick()
		if now.Sub(span.work) >= statWindow {
			span, winOK = ph.closeWindow(w, span, &winLat, winOK)
		}
		done := w.fixedDone(ph.virtStart)
		if done && !fpTaken {
			fpTaken = true
			ph.fp = w.fingerprint()
		}
		if done && time.Since(start) >= budget {
			break
		}
		if w.now()-ph.virtStart > 10*time.Minute {
			return nil, fmt.Errorf("%s: fixed work did not finish in 10 minutes of virtual time", w.sp.name)
		}
	}
	ph.closeWindow(w, span, &winLat, winOK)
	ph.wall = workNow().Sub(workStart)
	w.timing = false
	for _, p := range w.probes {
		p.on = false
	}
	ph.dispEnd = w.dispatches()
	ph.after = readGoStats()
	ph.heapPeak = heap.peak
	for _, cl := range w.clients {
		cl.measuring = false
		ph.ok += cl.mOK
		ph.bad += cl.mBad
	}
	return ph, nil
}

// harvest moves the clients' latency samples into win and returns the
// replies verified so far in the timed phase.
func (w *world) harvest(win *hist) int64 {
	var ok int64
	for _, cl := range w.clients {
		win.merge(&cl.wallNS)
		cl.wallNS.reset()
		ok += cl.mOK
	}
	return ok
}

// closeWindow ends a window of the timed phase that began with span:
// it takes the closing slice of the reference and adds the window's
// wall time and latencies, scaled to the reference clock, to the
// phase. A window shorter than half of statWindow (the phase's last)
// is left out of the per-window figures. It returns the next window's
// span and the replies verified so far.
func (ph *phase) closeWindow(w *world, span refSpan, lat *hist, okBefore int64) (refSpan, int64) {
	ok := w.harvest(lat)
	work, sp, next := ref.close(span)
	ph.refWall += time.Duration(float64(work) * sp.mean)
	ph.lat.mergeScaled(lat, sp.median)
	ph.latTail.mergeScaled(lat, sp.mean)
	if work >= statWindow/2 {
		ph.windows = append(ph.windows, windowStats{
			reqPerS: float64(ok-okBefore) / (work.Seconds() * sp.mean),
			p50NS:   lat.quantile(0.5) * sp.median,
			p99NS:   lat.quantile(0.99) * sp.mean,
		})
	}
	lat.reset()
	return next, ok
}

func (w *world) fingerprint() fingerprint {
	fp := fingerprint{VirtualNS: int64(w.now()), Dispatches: w.dispatches()}
	for _, cl := range w.clients {
		fp.Requests += cl.winReqs
		fp.LatencyNS += cl.winLatSum
		if int64(cl.winMaxLat) > fp.MaxLatNS {
			fp.MaxLatNS = int64(cl.winMaxLat)
		}
	}
	return fp
}

// fixedSpan is the virtual length of the fixed prefix.
func (w *world) fixedSpan(ph *phase) time.Duration {
	if w.train != nil {
		return w.clients[0].winEnd - ph.virtStart
	}
	return w.sp.window
}

// account folds the oracle's verdict into res: every reply checked in
// any phase, every train hop, and the lifecycle checks.
func account(res *result, w *world) {
	w.checkLifecycle()
	for _, cl := range w.clients {
		res.Attempted += cl.ok + cl.failed
		res.Failed += cl.failed
	}
	if w.train != nil {
		res.Attempted += int64(w.train.hops())
		res.Failed += int64(len(w.train.failed))
		for _, f := range w.train.failed {
			res.notes = append(res.notes, "failed: "+f)
		}
	}
	res.Failed += int64(len(w.lifeFail))
	for _, f := range w.lifeFail {
		res.notes = append(res.notes, "failed: "+f)
	}
	for _, cl := range w.clients {
		if cl.failed > 0 {
			res.notes = append(res.notes, fmt.Sprintf("failed: client %d got %d wrong or missing replies", cl.id, cl.failed))
		}
	}
}

// runEndToEnd is a --trace 0 run: at least setupRuns set-ups, the timed
// phases described below, and the end-to-end metrics.
func runEndToEnd(sp spec, seed int64, budget time.Duration) (result, error) {
	var res result
	var setups, peaks []float64
	var timed, refTimed time.Duration
	var ok, bad int64
	var mallocs, allocBytes uint64
	var lat, latTail hist
	var windows []windowStats
	var virtual string
	var hopWall []float64
	// A steady workload measures its last set-up for the whole budget.
	// kv-update's fixed work is one train, so it measures one train per
	// set-up until the budget is spent.
	for len(setups) < setupRuns || timed < budget {
		w, d, err := setup(sp, seed, false)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		if timed < budget && (w.train != nil || len(setups) >= setupRuns) {
			rest := budget - timed
			if w.train != nil {
				rest = 0
			}
			ph, err := measure(w, rest)
			if err != nil {
				return res, err
			}
			account(&res, w)
			timed += ph.wall
			refTimed += ph.refWall
			ok += ph.ok
			bad += ph.bad
			mallocs += ph.after.mallocs - ph.before.mallocs
			allocBytes += ph.after.allocBytes - ph.before.allocBytes
			lat.merge(&ph.lat)
			latTail.merge(&ph.latTail)
			windows = append(windows, ph.windows...)
			peaks = append(peaks, float64(ph.heapPeak)/(1<<20))
			virtual = virtualNote(w, ph)
			if w.train != nil {
				hopWall = append(hopWall, w.train.hopWallMS...)
			}
		}
		if err := w.teardown(); err != nil {
			return res, err
		}
	}
	reqs := float64(ok + bad)
	rate, p50, p99 := float64(ok)/refTimed.Seconds(), lat.quantile(0.5), latTail.quantile(0.99)
	if sp.name != wlUpdate {
		// Steady workloads: medians over the windows.
		var rates, p50s, p99s []float64
		for _, win := range windows {
			rates = append(rates, win.reqPerS)
			p50s = append(p50s, win.p50NS)
			p99s = append(p99s, win.p99NS)
		}
		rate, p50, p99 = median(rates), median(p50s), median(p99s)
	}
	res.set("setup_s", median(setups), "s")
	res.set("req_per_s", rate, "1/s")
	res.set("req_wall_us_p50", p50/1e3, "us")
	res.set("req_wall_us_p99", p99/1e3, "us")
	res.set("allocs_per_req", float64(mallocs)/reqs, "count")
	res.set("alloc_bytes_per_req", float64(allocBytes)/reqs, "B")
	res.set("heap_peak_mb", median(peaks), "MB")
	label, tail := latTail.tail()
	res.notes = append(res.notes,
		fmt.Sprintf("tail %s = %.3f us over %d samples", label, tail/1e3, latTail.n),
		fmt.Sprintf("wall req_per_s %.1f over %.3f s; machine speed p10/p50/p90 %.3f/%.3f/%.3f of nominal over %d slices",
			float64(ok)/timed.Seconds(), timed.Seconds(),
			quantile(ref.log, 0.1), quantile(ref.log, 0.5), quantile(ref.log, 0.9), len(ref.log)),
		virtual)
	if len(hopWall) > 0 {
		res.notes = append(res.notes, fmt.Sprintf("update_wall_ms per hop %.1f", hopWall))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// virtualNote prints the fixed prefix's simulated throughput and worst
// latency (the paper's figures) with its fingerprint. They depend only
// on the seed and the cost model; the cost model charges every kvstore
// command alike, so they do not vary with the seed at all, and they are
// reported here rather than as metrics.
func virtualNote(w *world, ph *phase) string {
	return fmt.Sprintf("virtual req_per_s %.3f max_latency_ms %.6f fingerprint %+v",
		float64(ph.fp.Requests)/w.fixedSpan(ph).Seconds(), float64(ph.fp.MaxLatNS)/1e6, ph.fp)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the q-th sample of v, by nearest rank.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// runTraced is a --trace 1 run: an untraced pass and a traced pass of
// the workload (each a third of the budget, after the fixed prefix),
// the recorder-mode ladder on kv-duo, and the micro-probes.
func runTraced(sp spec, seed int64, budget time.Duration, spansPath string) (result, error) {
	var res result
	part := budget / 3

	bare, _, err := setup(sp, seed, false)
	if err != nil {
		return res, err
	}
	bph, err := measure(bare, part)
	if err != nil {
		return res, err
	}
	account(&res, bare)
	if err := bare.teardown(); err != nil {
		return res, err
	}

	origin := time.Now()
	w, _, err := setup(sp, seed, true)
	if err != nil {
		return res, err
	}
	w.probeState()
	tph, err := measure(w, part)
	if err != nil {
		return res, err
	}
	account(&res, w)
	if tph.fp != bph.fp {
		res.Failed++
		res.notes = append(res.notes, fmt.Sprintf("failed: traced fingerprint %+v differs from untraced %+v", tph.fp, bph.fp))
	}
	layerMetrics(&res, w, tph, bph)
	totals, dropped, err := writeSpans(spansPath, origin, w.probes)
	if err != nil {
		return res, err
	}
	kept := 0
	for _, t := range totals {
		res.notes = append(res.notes, fmt.Sprintf("span %-28s n=%-7d wall=%10.3fms self=%10.3fms", t.Name, t.Count, t.WallMS, t.SelfMS))
		kept += t.Count
	}
	res.notes = append(res.notes, fmt.Sprintf("spans kept %d, dropped %d", kept, dropped))
	if err := w.teardown(); err != nil {
		return res, err
	}

	cost, err := recorderLadder(seed, budget/3/4)
	if err != nil {
		return res, err
	}
	for _, m := range []recMode{recMetrics, recSpans, recProfile} {
		res.set("obs.cost_x."+m.String(), cost[m], "x")
	}
	res.set("sim.handoff_ns", handoffNS(), "ns")
	res.set("ringbuf.put_get_ns", putGetNS(), "ns")
	res.Correct = res.Failed == 0
	return res, nil
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics reports the traced pass's per-layer metrics. Go runtime
// metrics come from the untraced pass, so the probes do not inflate
// them.
func layerMetrics(res *result, w *world, tph, bph *phase) {
	reqs := float64(tph.ok + tph.bad)
	var slice hist
	var share [4]int64
	var busy int64
	var inv [2][nRoles]hist
	var calls, parked [2][nRoles]int64
	var payload int64
	for _, p := range w.probes {
		slice.merge(&p.sliceNS)
		busy += p.busyNS
		for i := range share {
			share[i] += p.shareNS[i]
		}
		for l := 0; l < 2; l++ {
			for r := 0; r < nRoles; r++ {
				inv[l][r].merge(&p.invokeNS[l][r])
				calls[l][r] += p.calls[l][r]
				parked[l][r] += p.parked[l][r]
			}
		}
		payload += p.payload
	}
	res.set("sim.dispatches_per_req", float64(tph.dispEnd-tph.dispBase)/reqs, "count")
	shards := 1
	if w.ss != nil {
		shards = w.ss.Shards()
	}
	res.set("sim.slice_wall_ns_p50", slice.quantile(0.5), "ns")
	for i, n := range []string{"client", "leader", "follower", "other"} {
		res.set("sim.wall_share."+n, frac(share[i], busy), "fraction")
	}
	res.set("sim.epoch_wall_us_p50", tph.epochNS.quantile(0.5)/1e3, "us")
	res.set("sim.epochs_per_kreq", float64(tph.epochs)/(reqs/1000), "count")
	res.set("sim.shard_idle_frac", 1-float64(busy)/(float64(shards)*float64(tph.wall.Nanoseconds())), "fraction")

	var vos hist
	vos.merge(&inv[layerVOS][roleLeader])
	vos.merge(&inv[layerVOS][roleClient])
	vosCalls := calls[layerVOS][roleLeader] + calls[layerVOS][roleClient]
	vosParked := parked[layerVOS][roleLeader] + parked[layerVOS][roleClient]
	res.set("vos.invoke_ns_p50", vos.quantile(0.5), "ns")
	res.set("vos.park_frac", frac(vosParked, vosCalls), "fraction")
	for r, n := range []string{"leader", "follower"} {
		res.set("sysabi.calls_per_req."+n, float64(calls[layerVOS][r]+calls[layerMVE][r])/reqs, "count")
		res.set("mve."+n+"_invoke_ns_p50", inv[layerMVE][r].quantile(0.5), "ns")
		res.set("mve."+n+"_park_frac", frac(parked[layerMVE][r], calls[layerMVE][r]), "fraction")
	}
	res.set("sysabi.payload_bytes_per_req", float64(payload)/reqs, "B")

	var ring hist
	for _, p := range w.probes {
		ring.merge(&p.ringLen)
	}
	res.set("ringbuf.len_p50", ring.quantile(0.5), "count")
	res.set("ringbuf.len_max", float64(ring.max), "count")

	var fork, xform, quiesce, hopWall []float64
	stages := map[core.Stage][]float64{}
	for _, p := range w.probes {
		fork = append(fork, p.forkMS...)
		xform = append(xform, p.xformMS...)
		quiesce = append(quiesce, p.quiesceMS...)
		for s, v := range p.stageMS { // maporder: ok — appends into per-stage slices
			stages[s] = append(stages[s], v...)
		}
	}
	if w.train != nil {
		hopWall = w.train.hopWallMS
		res.notes = append(res.notes, fmt.Sprintf("virtual quiescence wait per hop %.4f ms", w.train.quiesceVirtMS))
	}
	res.set("dsu.fork_ms", mean(fork), "ms")
	res.set("dsu.xform_ms", mean(xform), "ms")
	res.set("dsu.quiesce_wall_ms", mean(quiesce), "ms")
	res.set("update_wall_ms", mean(hopWall), "ms")
	for s, n := range map[core.Stage]string{
		core.StageOutdatedLeader: "outdated_leader",
		core.StagePromoting:      "promoting",
		core.StageUpdatedLeader:  "updated_leader",
	} { // maporder: ok — each iteration sets its own metric
		v := 0.0
		if w.train != nil {
			v = mean(stages[s])
		}
		res.set("core.stage_wall_ms."+n, v, "ms")
	}

	events := 0.0
	if w.rec != nil {
		hot := int64(len(w.rec.Trace()) - len(w.rec.Milestones()))
		// The recorder has observed the world since it was built, so
		// divide by every reply, set-up included.
		var replies int64
		for _, cl := range w.clients {
			replies += cl.ok + cl.failed
		}
		events = float64(hot+w.rec.TraceDropped()) / float64(replies)
	}
	res.set("obs.events_per_req", events, "count")

	breqs := float64(bph.ok + bph.bad)
	res.set("go.gc_cycles_per_kreq", float64(bph.after.numGC-bph.before.numGC)/(breqs/1000), "count")
	res.set("go.gc_cpu_frac", gcFrac(bph), "fraction")
	res.set("go.gc_pause_us_p99", gcPauseP99(bph.before, bph.after), "us")
	bRate := float64(bph.ok) / bph.refWall.Seconds()
	tRate := float64(tph.ok) / tph.refWall.Seconds()
	res.set("trace.overhead_frac", 1-tRate/bRate, "fraction")
	res.notes = append(res.notes, virtualNote(w, tph))
}

func gcFrac(ph *phase) float64 {
	cpu := ph.after.totalCPU - ph.before.totalCPU
	if cpu <= 0 {
		return 0
	}
	return (ph.after.gcCPU - ph.before.gcCPU) / cpu
}

// recorderLadder reruns kv-duo with the flight recorder off, then in
// metrics, spans and profiling mode, and returns each mode's wall time
// per request relative to off.
func recorderLadder(seed int64, part time.Duration) (map[recMode]float64, error) {
	perReq := map[recMode]float64{}
	for _, m := range []recMode{recOff, recMetrics, recSpans, recProfile} {
		sp, _ := specFor(wlDuo)
		sp.recorder = m
		sp.window = 0
		w, _, err := setup(sp, seed, false)
		if err != nil {
			return nil, err
		}
		ph, err := measure(w, part)
		if err != nil {
			return nil, err
		}
		if ph.bad > 0 {
			return nil, fmt.Errorf("recorder ladder (%v): %d wrong replies", m, ph.bad)
		}
		perReq[m] = ph.refWall.Seconds() / float64(ph.ok)
		if err := w.teardown(); err != nil {
			return nil, err
		}
	}
	out := map[recMode]float64{}
	for m, v := range perReq { // maporder: ok — each iteration sets its own key
		out[m] = v / perReq[recOff]
	}
	return out, nil
}

// handoffNS times a Yield ping-pong between two tasks: the scheduler's
// cost to hand the CPU from one task to another.
func handoffNS() float64 {
	const n = 200000
	s := sim.New()
	for i := 0; i < 2; i++ {
		s.Go("ping", func(tk *sim.Task) {
			for j := 0; j < n; j++ {
				tk.Yield()
			}
		})
	}
	start := time.Now()
	if err := s.Run(); err != nil {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / (2 * n)
}

// putGetNS times a ring-buffer Put followed by a Get in one task.
func putGetNS() float64 {
	const n = 1000000
	s := sim.New()
	b := ringbuf.New(s, 256)
	var elapsed time.Duration
	s.Go("ring", func(tk *sim.Task) {
		e := ringbuf.Entry{Kind: ringbuf.KindSyscall, Event: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpClock}}}
		start := time.Now()
		for j := 0; j < n; j++ {
			b.Put(tk, e)
			b.Get(tk)
		}
		elapsed = time.Since(start)
	})
	if err := s.Run(); err != nil {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / n
}
