package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/bench"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// Workload names, as given to --workload.
const (
	wlDuo     = "kv-duo"
	wlUpdate  = "kv-update"
	wlSharded = "kv-sharded"
)

// recMode is the flight recorder's mode in a world.
type recMode int

const (
	recOff recMode = iota
	recMetrics
	recSpans
	recProfile
)

func (m recMode) String() string {
	return [...]string{"off", "metrics", "spans", "profile"}[m]
}

// spec fixes one workload's shape. Everything a run sends to the
// program is derived from spec plus the seed.
type spec struct {
	name    string
	groups  int // kvstore instances (kv-sharded places them on shards)
	shards  int // 0: a single sim.Scheduler
	clients int // closed-loop clients per group
	keys    int // keys owned by each client
	readPct int // share of GETs; the rest are SETs
	ring    int // MVE ring-buffer entries (monitored worlds)
	// preload fills the store through kvstore.Preload before it starts;
	// otherwise each client SETs every key it owns before timing.
	preload bool
	// versions is the update path: kv-duo installs versions[1] as the
	// follower, kv-update walks the whole train.
	versions []string
	recorder recMode
	// window is the virtual length of the fixed work every timed phase
	// executes first; the virtual summary and the fingerprint cover
	// exactly this prefix. kv-update's fixed work is its train instead.
	window time.Duration
	// dwell is the virtual time the train spends in the outdated- and
	// updated-leader stages after the follower caught up.
	dwell time.Duration
	// breakHop makes that hop's state transformation fail (tests only;
	// -1 for none).
	breakHop int
	// procs is the run's GOMAXPROCS. kv-sharded needs one per shard.
	// The other two run one scheduler, which runs one task at a time:
	// kv-duo gets one processor, so its small heap's collections and
	// its goroutine wake-ups stay on one core instead of contending
	// with the machine's other tenants for a second; kv-update gets
	// two, so collecting its 180 MB heap runs beside the scheduler.
	// On a 2-vCPU host each choice gave the steadier runs of the two.
	procs int
}

func specFor(name string) (spec, error) {
	switch name {
	case wlDuo:
		return spec{
			name: name, groups: 1, clients: 2, keys: 4096, readPct: 90,
			ring: 256, versions: []string{"2.0.0", "2.0.1"},
			recorder: recOff, window: 400 * time.Millisecond, breakHop: -1, procs: 1,
		}, nil
	case wlUpdate:
		return spec{
			name: name, groups: 1, clients: 2, keys: 32768, readPct: 50,
			ring: 1 << 20, preload: true,
			versions: []string{"2.0.0", "2.0.1", "2.0.2", "2.0.3"},
			recorder: recMetrics, dwell: 50 * time.Millisecond,
			breakHop: -1, procs: 2,
		}, nil
	case wlSharded:
		return spec{
			name: name, groups: 8, shards: 2, clients: 2, keys: 1024, readPct: 90,
			versions: []string{"2.0.0"},
			window:   150 * time.Millisecond, breakHop: -1, procs: 2,
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlDuo, wlUpdate, wlSharded)
}

// step is the virtual quantum the stepping loop advances a world by between
// its checks; it is also the kv-sharded epoch length.
const step = time.Millisecond

// Generated SET values are 16 to 48 bytes long, every length equally
// often in the pool; the seed picks their bytes.
const (
	valueMin = 16
	valueMax = 48
)

// valuePool is the seeded set of values clients write, with the GET
// reply each one must come back as.
type valuePool struct {
	vals, replies []string
}

func newValuePool(rng *rand.Rand, n int) valuePool {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	var p valuePool
	for i := 0; i < n; i++ {
		b := make([]byte, valueMin+i%(valueMax-valueMin+1))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		p.vals = append(p.vals, string(b))
		p.replies = append(p.replies, fmt.Sprintf("$%d\r\n%s\r\n", len(b), b))
	}
	return p
}

// client is one closed-loop load generator with its own reference
// model: it owns a disjoint slice of the keyspace, so the last value it
// wrote is the only correct answer to its next GET of that key.
type client struct {
	id      int
	rng     *rand.Rand
	readPct int
	pool    valuePool
	getCmd  []string // "GET <key>\r\n" per owned key
	setCmd  []string // "SET <key> " per owned key
	expect  []string // expected GET reply per owned key
	conn    *apptest.Client
	task    *sim.Task
	filled  bool // every owned key holds a known value
	seq     uint64

	// Everything below is written by the client's own task and read
	// by the stepping loop only between scheduler steps.
	ok, failed int64 // replies checked in any phase
	measuring  bool
	mOK, mBad  int64         // replies checked while measuring
	wallNS     hist          // wall latency of checked replies, harvested per window
	winEnd     time.Duration // virtual end of the fixed window
	winReqs    int64
	winMaxLat  time.Duration
	winLatSum  int64
	probe      *probes // nil unless traced
}

func newClient(id int, sp spec, seed int64, pool valuePool) *client {
	cl := &client{
		id:      id,
		rng:     rand.New(rand.NewSource(seed*7919 + int64(id) + 1)),
		readPct: sp.readPct,
		pool:    pool,
		getCmd:  make([]string, sp.keys),
		setCmd:  make([]string, sp.keys),
		expect:  make([]string, sp.keys),
		filled:  sp.preload,
		winEnd:  math.MaxInt64,
	}
	for i := range cl.getCmd {
		k := id*sp.keys + i
		key := fmt.Sprintf("key:%08d", k)
		cl.getCmd[i] = "GET " + key + "\r\n"
		cl.setCmd[i] = "SET " + key + " "
		if sp.preload {
			cl.expect[i] = fmt.Sprintf("$12\r\nval:%08d\r\n", k)
		}
	}
	return cl
}

// run is the client task body: connect, fill the owned keys unless the
// store was preloaded, then issue requests until killed.
func (cl *client) run(tk *sim.Task, k *vos.Kernel, port int64) {
	cl.conn = apptest.Connect(k, tk, port)
	if !cl.filled {
		for i := range cl.expect {
			cl.request(tk, i, true)
		}
		cl.filled = true
	}
	for {
		i := cl.rng.Intn(len(cl.expect))
		cl.request(tk, i, cl.rng.Intn(100) >= cl.readPct)
	}
}

// request sends one command, waits for its reply and checks it against
// the reference model.
func (cl *client) request(tk *sim.Task, i int, set bool) {
	var cmd, want string
	v := 0
	if set {
		v = cl.rng.Intn(len(cl.pool.vals))
		cmd = cl.setCmd[i] + cl.pool.vals[v] + "\r\n"
		want = "+OK\r\n"
	} else {
		cmd = cl.getCmd[i]
		want = cl.expect[i]
	}
	cl.seq++
	id := uint64(cl.id+1)<<40 | cl.seq
	vStart := tk.Now()
	wStart := workNow()
	var got string
	if p := cl.probe; p != nil {
		m := p.begin(tk)
		cl.conn.SendTagged(tk, id, cmd)
		p.end(tk, m, layerVOS, roleClient, sysabi.OpWrite, id)
		m = p.begin(tk)
		got = cl.conn.Recv(tk)
		p.end(tk, m, layerVOS, roleClient, sysabi.OpRead, id)
	} else {
		cl.conn.SendTagged(tk, id, cmd)
		got = cl.conn.Recv(tk)
	}
	good := got == want
	wEnd := workNow()
	vEnd := tk.Now()
	if set {
		cl.expect[i] = cl.pool.replies[v]
	}
	if good {
		cl.ok++
	} else {
		cl.failed++
	}
	if !cl.measuring {
		return
	}
	if good {
		cl.mOK++
	} else {
		cl.mBad++
	}
	cl.wallNS.add(int64(wEnd.Sub(wStart)))
	if vEnd <= cl.winEnd {
		cl.winReqs++
		lat := vEnd - vStart
		cl.winLatSum += int64(lat)
		if lat > cl.winMaxLat {
			cl.winMaxLat = lat
		}
	}
	if cl.probe != nil {
		cl.probe.span(spanRequest, id, 0, wStart, wEnd)
	}
}

// world is one built workload instance: the simulated service, its
// clients, and the hooks the stepping loop drives it with.
type world struct {
	sp      spec
	clients []*client

	// Exactly one of s (kv-duo, kv-update) and ss (kv-sharded) is set.
	s   *sim.Scheduler
	ss  *sim.ShardedScheduler
	ctl *core.Controller
	rec *obs.Recorder

	// kv-sharded: one native runtime per group, on the group's shard.
	runtimes []*dsu.Runtime

	probes []*probes // one per scheduler when traced

	requested bool          // kv-duo: the follower's update was requested
	installed bool          // kv-duo: the follower caught up
	readyAt   time.Duration // virtual time setup finished; 0 while pending
	timing    bool          // a timed phase is running (the train starts with it)
	rollbacks int           // controller rollbacks seen through OnStage
	lifeFail  []string      // lifecycle oracle failures
	train     *train        // kv-update
}

// buildWorld assembles the workload. With traced set, every probe is
// installed; the simulated behaviour is identical either way.
func buildWorld(sp spec, seed int64, traced bool) *world {
	w := &world{sp: sp}
	pool := newValuePool(rand.New(rand.NewSource(seed)), 256)
	if sp.shards > 0 {
		w.buildSharded(seed, pool, traced)
		return w
	}
	w.s = sim.New()
	k := vos.NewKernel(w.s)
	k.BaseCost = bench.KernelCost
	if sp.recorder != recOff {
		w.rec = obs.New(w.s.Now, obs.Options{})
		w.rec.SetTraceDropSource(w.s)
	}
	var pr *probes
	if traced {
		pr = newProbes()
		w.probes = []*probes{pr}
		w.s.OnSlice = pr.onSlice
	}
	cfg := core.Config{
		BufferEntries: sp.ring,
		Costs:         bench.MVECosts(bench.ModeMvedsua2),
		DSU:           dsu.Config{UpdateCheckCost: bench.DSUCheckCost(bench.ModeMvedsua2)},
		Recorder:      w.rec,
	}
	if pr != nil {
		cfg.WrapDispatcher = func(_, _ string, d sysabi.Dispatcher) sysabi.Dispatcher {
			proc, _ := d.(*mve.Proc)
			return &probedDispatcher{d: d, p: pr, proc: proc, layer: layerMVE}
		}
	}
	w.ctl = core.New(k, cfg)
	w.ctl.OnStage = w.onStage
	aw := &apptest.World{S: w.s, K: k, C: w.ctl, Rec: w.rec}
	switch sp.recorder {
	case recSpans:
		aw.EnableSpanTracing()
	case recProfile:
		aw.EnableProfiling()
	}
	app := kvstore.New(kvstore.SpecFor(sp.versions[0], false))
	app.CmdCPU = bench.KVStoreCmdCPU
	if sp.preload {
		app.Preload(sp.clients * sp.keys)
	}
	w.ctl.Start(app)
	for i := 0; i < sp.clients; i++ {
		cl := newClient(i, sp, seed, pool)
		cl.probe = pr
		cl.task = w.s.Go(fmt.Sprintf("client%d", i), func(tk *sim.Task) { cl.run(tk, k, kvstore.Port) })
		w.clients = append(w.clients, cl)
	}
	if sp.name == wlUpdate {
		w.train = &train{w: w}
	}
	return w
}

func (w *world) buildSharded(seed int64, pool valuePool, traced bool) {
	sp := w.sp
	w.ss = sim.NewSharded(sp.shards, step)
	if traced {
		for i := 0; i < sp.shards; i++ {
			pr := newProbes()
			w.probes = append(w.probes, pr)
			w.ss.Shard(i).OnSlice = pr.onSlice
		}
	}
	for g := 0; g < sp.groups; g++ {
		s := w.ss.Shard(g % sp.shards)
		k := vos.NewKernel(s)
		k.BaseCost = bench.KernelCost
		var d sysabi.Dispatcher = k
		var pr *probes
		if traced {
			pr = w.probes[g%sp.shards]
			d = &probedDispatcher{d: k, p: pr, layer: layerVOS}
		}
		app := kvstore.New(kvstore.SpecFor(sp.versions[0], false))
		app.CmdCPU = bench.KVStoreCmdCPU
		rt := dsu.NewRuntime(s, app, dsu.Config{Name: "leader", Dispatcher: d})
		rt.Start()
		w.runtimes = append(w.runtimes, rt)
		for i := 0; i < sp.clients; i++ {
			cl := newClient(g*sp.clients+i, sp, seed, pool)
			cl.probe = pr
			cl.task = s.Go(fmt.Sprintf("client%d", cl.id), func(tk *sim.Task) { cl.run(tk, k, kvstore.Port) })
			w.clients = append(w.clients, cl)
		}
	}
}

func (w *world) now() time.Duration {
	if w.ss != nil {
		return w.ss.Now()
	}
	return w.s.Now()
}

func (w *world) dispatches() int64 {
	if w.ss != nil {
		return w.ss.Dispatches()
	}
	return w.s.Dispatches()
}

// advance runs the world for one step of virtual time.
func (w *world) advance() error {
	if w.ss != nil {
		for _, pr := range w.probes {
			pr.last = workNow()
		}
		return w.ss.RunFor(step)
	}
	if len(w.probes) > 0 {
		w.probes[0].last = workNow()
	}
	return w.s.RunFor(step)
}

// onStage watches the controller's lifecycle for the oracle (rollbacks)
// and, when traced, stamps each stage with wall time.
func (w *world) onStage(ev core.Event) {
	if len(ev.Note) >= 11 && ev.Note[:11] == "rolled back" {
		w.rollbacks++
	}
	if len(w.probes) > 0 {
		w.probes[0].stage(ev.Stage)
	}
}

// tick runs the workload's orchestration between steps: installing the
// duo's follower during setup and driving kv-update's train.
func (w *world) tick() {
	if len(w.probes) > 0 && w.probes[0].on && w.ctl != nil {
		w.probes[0].ringLen.add(int64(w.ctl.Monitor().Buffer().Len()))
	}
	if w.readyAt != 0 {
		if w.train != nil && w.timing {
			w.train.tick()
		}
		return
	}
	for _, cl := range w.clients {
		if !cl.filled {
			return
		}
	}
	if w.sp.name == wlDuo && !w.installed {
		if !w.requested {
			w.requested = w.requestUpdate(kvstore.Update(w.sp.versions[0], w.sp.versions[1], kvstore.UpdateOpts{}))
			return
		}
		if !w.transformed() {
			return
		}
		w.installed = true
	}
	w.readyAt = w.now() + 20*time.Millisecond
}

// requestUpdate asks the controller for v; when traced, the state
// transformation is timed and the request stamped, so the wait for
// quiescence can be read off the stage callback.
func (w *world) requestUpdate(v *dsu.Version) bool {
	if len(w.probes) > 0 {
		w.probes[0].wrapXform(v)
		w.probes[0].updateAt = workNow()
	}
	return w.ctl.Update(v)
}

// probeState times, outside the timed phase, forking each live store
// and, on kv-sharded (which never updates), transforming it. kv-update
// times both per hop instead, and kv-duo's transform is timed in its
// set-up hop.
func (w *world) probeState() {
	if w.train != nil {
		return
	}
	if w.ctl != nil {
		w.probes[0].timeFork(w.ctl.LeaderRuntime().App())
		return
	}
	for g, rt := range w.runtimes {
		p := w.probes[g%len(w.probes)]
		p.timeFork(rt.App())
		v := kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{})
		p.wrapXform(v)
		if _, err := v.Xform(rt.App()); err != nil {
			w.lifeFail = append(w.lifeFail, "out-of-band state transformation: "+err.Error())
		}
	}
}

// ready reports whether setup is complete: keys filled, the follower
// (kv-duo) caught up, and a short warm-up elapsed.
func (w *world) ready() bool { return w.readyAt != 0 && w.now() >= w.readyAt }

// transformed reports whether the controller is in the outdated-leader
// stage with the follower's state transformation done, so the follower
// is replaying the leader's stream.
func (w *world) transformed() bool {
	if w.ctl.Stage() != core.StageOutdatedLeader {
		return false
	}
	fr := w.ctl.FollowerRuntime()
	return fr != nil && fr.Generation() > 0
}

// fixedDone reports whether the fixed work of a run has completed.
func (w *world) fixedDone(t0 time.Duration) bool {
	if w.train != nil {
		return w.train.done && w.now() >= w.clients[0].winEnd
	}
	return w.now() >= t0+w.sp.window
}

// checkLifecycle is the end-of-run oracle for the simulated service:
// no crash anywhere, and a duo that is still validating with no
// divergence.
func (w *world) checkLifecycle() {
	crashes := 0
	if w.ss != nil {
		for i := 0; i < w.ss.Shards(); i++ {
			crashes += len(w.ss.Shard(i).Crashes())
		}
	} else {
		crashes = len(w.s.Crashes())
	}
	if crashes > 0 {
		w.lifeFail = append(w.lifeFail, fmt.Sprintf("%d task crash(es)", crashes))
	}
	if w.ctl == nil {
		return
	}
	if n := len(w.ctl.Monitor().Divergences()); n > 0 {
		w.lifeFail = append(w.lifeFail, fmt.Sprintf("%d divergence(s): %v", n, w.ctl.Monitor().Divergences()[0]))
	}
	if w.sp.name == wlDuo && w.ctl.Stage() != core.StageOutdatedLeader {
		w.lifeFail = append(w.lifeFail, "duo left the outdated-leader stage: "+w.ctl.Stage().String())
	}
}

// teardown kills every task and drains the scheduler, so nothing of the
// world outlives it.
func (w *world) teardown() error {
	kill := func(tk *sim.Task) {
		for _, cl := range w.clients {
			if cl.task.Scheduler() == tk.Scheduler() {
				cl.task.Kill()
			}
		}
		for _, rt := range w.runtimes {
			if rt.Scheduler() == tk.Scheduler() {
				rt.KillAll()
			}
		}
		if w.ctl != nil {
			if rt := w.ctl.FollowerRuntime(); rt != nil {
				rt.KillAll()
			}
			w.ctl.Monitor().DropFollower()
			if rt := w.ctl.LeaderRuntime(); rt != nil {
				rt.KillAll()
			}
		}
	}
	if w.ss != nil {
		for i := 0; i < w.ss.Shards(); i++ {
			w.ss.Go(i, "wallbench/teardown", kill)
		}
		return w.ss.Run()
	}
	w.s.Go("wallbench/teardown", kill)
	return w.s.Run()
}

// train drives kv-update's update train from the stepping loop:
// each hop is requested, transformed on a forked follower, promoted and
// committed, with a fixed virtual dwell in each two-version stage. The
// follower replays slower than the leader records, so the backlog the
// 2^20-entry ring holds at promotion is drained while nobody serves:
// that drain is the update pause the virtual summary reports as the
// worst latency.
type train struct {
	w     *world
	hop   int // index into versions of the hop's source version
	phase int
	since time.Duration // virtual time the phase started

	leader        *dsu.Runtime // the leading runtime when the hop started
	wallStart     time.Time
	hopWallMS     []float64
	quiesceVirtMS []float64
	committed     int
	failed        []string
	done          bool
}

const (
	phRequest = iota
	phInstall
	phOutdated
	phPromote
	phUpdated
)

// hopTimeout bounds one hop in virtual time.
const hopTimeout = 30 * time.Second

func (t *train) tick() {
	w, c := t.w, t.w.ctl
	if t.done {
		return
	}
	now := w.now()
	from, to := w.sp.versions[t.hop], w.sp.versions[t.hop+1]
	if t.phase != phRequest && (w.rollbacks > 0 || now-t.since > hopTimeout) {
		t.fail(fmt.Sprintf("hop %s->%s did not commit (stage %v, rollbacks %d)", from, to, c.Stage(), w.rollbacks))
		return
	}
	switch t.phase {
	case phRequest:
		opts := kvstore.UpdateOpts{BreakXform: t.hop == w.sp.breakHop}
		if len(w.probes) > 0 {
			w.probes[0].timeFork(c.LeaderRuntime().App())
		}
		t.leader = c.LeaderRuntime()
		t.wallStart = workNow()
		if !w.requestUpdate(kvstore.Update(from, to, opts)) {
			t.fail(fmt.Sprintf("hop %s->%s refused in stage %v", from, to, c.Stage()))
			return
		}
		t.phase, t.since = phInstall, now
	case phInstall:
		if w.transformed() {
			t.phase, t.since = phOutdated, now
		}
	case phOutdated:
		if now-t.since >= w.sp.dwell {
			if !c.Promote() {
				t.fail(fmt.Sprintf("hop %s->%s: promotion refused", from, to))
				return
			}
			t.phase = phPromote
		}
	case phPromote:
		if c.Stage() == core.StageUpdatedLeader {
			t.phase, t.since = phUpdated, now
		}
	case phUpdated:
		if now-t.since < w.sp.dwell {
			return
		}
		if !c.Commit() {
			t.fail(fmt.Sprintf("hop %s->%s: commit refused", from, to))
			return
		}
		t.hopWallMS = append(t.hopWallMS, float64(workNow().Sub(t.wallStart).Nanoseconds())/1e6)
		if got := c.LeaderRuntime().App().Version(); got != to {
			t.fail(fmt.Sprintf("hop %s->%s committed but %s leads", from, to, got))
			return
		}
		for _, r := range t.leader.Records() {
			if r.Version == to && r.Outcome == dsu.OutcomeForked {
				t.quiesceVirtMS = append(t.quiesceVirtMS, float64(r.DecidedAt-r.RequestedAt)/1e6)
			}
		}
		t.committed++
		t.hop++
		t.phase = phRequest
		if t.hop == len(w.sp.versions)-1 {
			t.finish()
		}
	}
}

// fail ends the train: the failing hop and every hop queued behind it
// count as failed.
func (t *train) fail(why string) {
	t.failed = append(t.failed, why)
	for h := t.hop + 1; h < t.hops(); h++ {
		t.failed = append(t.failed, fmt.Sprintf("hop %s->%s not attempted after a failed hop",
			t.w.sp.versions[h], t.w.sp.versions[h+1]))
	}
	t.finish()
}

// finish closes the fixed window a short tail after the train ends.
func (t *train) finish() {
	t.done = true
	end := t.w.now() + 50*time.Millisecond
	for _, cl := range t.w.clients {
		cl.winEnd = end
	}
}

func (t *train) hops() int { return len(t.w.sp.versions) - 1 }
