package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// This file holds the traced run's probes. They sit outside the
// program, around calls into each layer's public API: scheduler slice
// callbacks (sim), the syscall dispatcher handed to dsu (vos for native
// runtimes, mve for monitored ones, with sysabi counted at the same
// boundary), the controller's stage callback (core), the state transform
// and fork (dsu, apps/kvstore), and the ring buffer's occupancy. A
// probe reads the wall clock and scheduler counters but never the
// virtual clock's future, so a traced run must reproduce the untraced
// run's virtual fingerprint exactly.

// Layers a probed dispatcher can sit at.
const (
	layerVOS = iota // around vos.Kernel, under a native dsu.Runtime
	layerMVE        // around an mve.Proc, under a monitored dsu.Runtime
)

// Roles a probed call is attributed to.
const (
	roleLeader = iota
	roleFollower
	roleClient
	nRoles
)

// nOps bounds sysabi.Op values for span naming.
const nOps = int(sysabi.OpExit) + 1

// spanRequest names the client-side request span; layer spans are
// numbered after it by (layer, role, op).
const spanRequest = 0

func spanName(n int) string {
	if n == spanRequest {
		return "client.request"
	}
	n--
	op := sysabi.Op(n % nOps)
	n /= nOps
	role := [...]string{"leader", "follower", "client"}[n%nRoles]
	layer := [...]string{"vos", "mve"}[n/nRoles]
	return layer + "." + role + "." + op.String()
}

func layerSpan(layer, role int, op sysabi.Op) int {
	return 1 + (layer*nRoles+role)*nOps + int(op)
}

// span is one timed interval at a layer boundary. A client request's
// span has the sysabi ReqID the client sent as its id; the layer spans
// serving that request carry the same ReqID as their parent.
type span struct {
	name       int
	id, parent uint64
	start, end time.Time
}

// maxSpans bounds the spans one probe set keeps in memory; later spans
// are counted, not stored.
const maxSpans = 1 << 16

// spanEvery samples requests for span keeping: the spans of one request
// in spanEvery are kept, so the kept set covers the whole timed phase.
const spanEvery = 64

// probes collects one scheduler's traced measurements. Each shard of a
// sharded world has its own, written only by that shard's goroutine and
// read by the stepping loop between steps.
type probes struct {
	on bool // a timed phase is running
	// sim
	last    time.Time // wall time of the previous slice callback
	sliceNS hist
	shareNS [4]int64         // client, leader, follower, other
	busyNS  int64            // slice wall time summed over the timed phase
	allNS   int64            // slice wall time summed since the world was built
	taskNS  map[string]int64 // allNS per task
	// vos, sysabi and mve, at the dispatcher boundary
	invokeNS [2][nRoles]hist // [layer][role]: each call's own wall time
	calls    [2][nRoles]int64
	parked   [2][nRoles]int64
	payload  int64
	ringLen  hist
	// core
	stageAt   time.Time
	stageName core.Stage
	stageMS   map[core.Stage][]float64
	// dsu and apps/kvstore
	forkMS, xformMS, quiesceMS []float64
	updateAt                   time.Time // wall time of the last Update request

	spans   []span
	dropped int64
	nextID  uint64
}

func newProbes() *probes {
	return &probes{
		spans:   make([]span, 0, maxSpans),
		stageMS: make(map[core.Stage][]float64),
		taskNS:  make(map[string]int64),
	}
}

// onSlice is the sim.Scheduler.OnSlice hook: the wall time since the
// previous callback is the slice just ended, charged to its task.
func (p *probes) onSlice(task string, _, _ time.Duration) {
	now := workNow()
	d := int64(now.Sub(p.last))
	p.last = now
	p.allNS += d
	p.taskNS[task] += d
	if !p.on {
		return
	}
	p.sliceNS.add(d)
	p.busyNS += d
	switch {
	case strings.HasPrefix(task, "client"):
		p.shareNS[0] += d
	case strings.HasPrefix(task, "leader/"):
		p.shareNS[1] += d
	case strings.HasPrefix(task, "follower/"):
		p.shareNS[2] += d
	default:
		p.shareNS[3] += d
	}
}

func (p *probes) span(name int, id, parent uint64, start, end time.Time) {
	key := parent
	if key == 0 {
		key = id
	}
	if !p.on || key%spanEvery != 0 {
		return
	}
	if len(p.spans) == maxSpans {
		p.dropped++
		return
	}
	p.spans = append(p.spans, span{name: name, id: id, parent: parent, start: start, end: end})
}

// stage stamps a controller stage transition with wall time. Entering
// the outdated-leader stage is the moment the leader quiesced and
// forked, which closes the quiescence wait of the pending update.
func (p *probes) stage(s core.Stage) {
	now := workNow()
	if s == core.StageOutdatedLeader && !p.updateAt.IsZero() {
		p.quiesceMS = append(p.quiesceMS, float64(now.Sub(p.updateAt).Nanoseconds())/1e6)
		p.updateAt = time.Time{}
	}
	if !p.stageAt.IsZero() {
		p.stageMS[p.stageName] = append(p.stageMS[p.stageName], float64(now.Sub(p.stageAt).Nanoseconds())/1e6)
	}
	p.stageAt, p.stageName = now, s
}

// timeFork times a deep copy of the live store, the work the
// controller's fork does at quiescence; the copy is dropped.
func (p *probes) timeFork(app dsu.App) {
	start := workNow()
	_ = app.Fork()
	p.forkMS = append(p.forkMS, float64(workNow().Sub(start).Nanoseconds())/1e6)
}

// wrapXform times the version's state transformation.
func (p *probes) wrapXform(v *dsu.Version) {
	inner := v.Xform
	v.Xform = func(old dsu.App) (dsu.App, error) {
		start := workNow()
		app, err := inner(old)
		p.xformMS = append(p.xformMS, float64(workNow().Sub(start).Nanoseconds())/1e6)
		return app, err
	}
}

// callMark is the state a probed call starts from.
type callMark struct {
	start       time.Time
	dispatches  int64
	busy, owned int64
}

func (p *probes) begin(t *sim.Task) callMark {
	return callMark{
		dispatches: t.Scheduler().Dispatches(),
		busy:       p.allNS,
		owned:      p.taskNS[t.Name()],
		start:      workNow(),
	}
}

// end accounts one call into a layer. A call "parked" when the
// scheduler dispatched another task before it returned; the slices
// other tasks ran meanwhile are subtracted, so the latency histogram
// holds each call's own wall time. (A follower parks on every call: its
// replay cost elapses as a virtual sleep.)
func (p *probes) end(t *sim.Task, m callMark, layer, role int, op sysabi.Op, req uint64) {
	end := workNow()
	if !p.on {
		return
	}
	p.calls[layer][role]++
	own := int64(end.Sub(m.start))
	if t.Scheduler().Dispatches() != m.dispatches {
		p.parked[layer][role]++
		own -= (p.allNS - m.busy) - (p.taskNS[t.Name()] - m.owned)
	}
	p.invokeNS[layer][role].add(own)
	p.nextID++
	p.span(layerSpan(layer, role, op), p.nextID, req, m.start, end)
}

// probedDispatcher wraps the dispatcher a dsu.Runtime issues its
// syscalls through, attributing each call to the process's current
// role and to the client request it serves.
type probedDispatcher struct {
	d     sysabi.Dispatcher
	p     *probes
	proc  *mve.Proc // nil under a native runtime
	layer int
	req   map[int]uint64 // request id being served, per thread
}

func (pd *probedDispatcher) Invoke(t *sim.Task, c sysabi.Call) sysabi.Result {
	role := roleLeader
	if pd.proc != nil && pd.proc.Role() == mve.RoleFollower {
		role = roleFollower
	}
	m := pd.p.begin(t)
	r := pd.d.Invoke(t, c)
	if pd.req == nil {
		pd.req = make(map[int]uint64)
	}
	if r.ReqID != 0 {
		pd.req[c.TID] = r.ReqID
	}
	if pd.p.on {
		pd.p.payload += int64(len(c.Buf) + len(r.Data))
	}
	pd.p.end(t, m, pd.layer, role, c.Op, pd.req[c.TID])
	return r
}

// writeSpans writes every kept span as one JSON object per line, with
// times in nanoseconds from origin, and returns per-name totals: count,
// wall time and self time (a span's duration minus the part of it its
// child spans cover).
func writeSpans(path string, origin time.Time, all []*probes) ([]spanTotal, int64, error) {
	var spans []span
	var dropped int64
	for _, p := range all {
		spans = append(spans, p.spans...)
		dropped += p.dropped
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	totals := spanTotals(spans)
	if path == "" {
		return totals, dropped, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return totals, dropped, fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return totals, dropped, fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, spanName(s.name), s.start.Sub(origin).Nanoseconds(), s.end.Sub(origin).Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return totals, dropped, fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return totals, dropped, fmt.Errorf("write spans: %w", err)
	}
	return totals, dropped, nil
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	Name           string
	Count          int
	WallMS, SelfMS float64
}

func spanTotals(spans []span) []spanTotal {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := make(map[int]*spanTotal)
	for _, s := range spans {
		t := byName[s.name]
		if t == nil {
			t = &spanTotal{Name: spanName(s.name)}
			byName[s.name] = t
		}
		dur := s.end.Sub(s.start)
		t.Count++
		t.WallMS += float64(dur.Nanoseconds()) / 1e6
		self := dur
		if s.name == spanRequest {
			self -= covered(s, children[s.id])
		}
		t.SelfMS += float64(self.Nanoseconds()) / 1e6
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName { // maporder: ok — sorted below
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of kids' intervals clipped to
// parent's interval. kids arrive in start order.
func covered(parent span, kids []span) time.Duration {
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curEnd) {
			if e.After(curEnd) {
				curEnd = e
			}
			continue
		}
		if open {
			total += curEnd.Sub(curStart)
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}
