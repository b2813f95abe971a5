package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// The slo experiment measures the paper's headline claim — higher
// availability during dynamic updates — directly, as an availability
// ledger (obs.SLOTracker) over three adversarial scenarios:
//
//   - update-under-load: a long per-entry state transformation runs
//     while the leader keeps serving; the leader only pauses when the
//     busy follower lets the ring buffer fill (FullBlock backpressure),
//     and the ledger attributes that pause to the update.
//   - fault-and-recover: an injected follower stall parks the leader on
//     the full ring until the watchdog's follower-liveness health rule
//     rescues it by rolling the update back; MTTR is the rescue gap.
//   - canary-rollback: a fleet canary stalls mid-window, pins the ring
//     and parks the leader until the canary gate's ring-lag health rule
//     rolls it back at window close.
//
// Every run is deterministic virtual time, so BENCH_slo.json is a
// byte-stable artifact TestArtifacts diffs.

// SLOSchemaID is the report format identifier.
const SLOSchemaID = "mvedsua-slo/v1"

// sloOpts is the shared tracker configuration: 20ms timeline windows,
// a 2ms stall threshold (any client-visible gap past 2ms is downtime),
// and a 1ms per-window p99 latency budget.
func sloOpts() obs.SLOOptions {
	return obs.SLOOptions{
		Window:           20 * time.Millisecond,
		StallThreshold:   2 * time.Millisecond,
		LatencyBudgetP99: time.Millisecond,
	}
}

// sloSuccessFloor is the per-window success-rate floor the scenario's
// health engine enforces on window close.
const sloSuccessFloor = 0.999

// SLOVerdictRow is one health-engine violation, in the run's verdict
// stream.
type SLOVerdictRow struct {
	AtNS    int64  `json:"at_ns"`
	Scope   string `json:"scope"`
	Subject string `json:"subject"`
	Rule    string `json:"rule"`
	Reason  string `json:"reason"`
}

// SLOScopeRow summarizes one scoped registry (per-process metrics) or
// the deterministic merge of all of them.
type SLOScopeRow struct {
	Scope       string `json:"scope"`
	Syscalls    int64  `json:"syscalls"`
	Replayed    int64  `json:"replayed"`
	Divergences int64  `json:"divergences"`
}

// SLORunRow is one scenario's availability ledger plus its verdict
// stream and (for scoped runs) per-process metric summaries.
type SLORunRow struct {
	Name             string          `json:"name"`
	Description      string          `json:"description"`
	Outcome          string          `json:"outcome"`
	Requests         int64           `json:"requests"`
	VirtualMillis    float64         `json:"virtual_ms"`
	WindowNS         int64           `json:"window_ns"`
	StallThresholdNS int64           `json:"stall_threshold_ns"`
	BudgetP99NS      int64           `json:"budget_p99_ns"`
	Ledger           obs.SLOReport   `json:"ledger"`
	Verdicts         []SLOVerdictRow `json:"verdicts"`
	Scopes           []SLOScopeRow   `json:"scopes,omitempty"`
	ScopesMerged     *SLOScopeRow    `json:"scopes_merged,omitempty"`
}

// SLOBenchReport is the benchtool's machine-readable SLO artifact
// (BENCH_slo.json).
type SLOBenchReport struct {
	Schema string      `json:"schema"`
	Floor  float64     `json:"success_rate_floor"`
	Runs   []SLORunRow `json:"runs"`
}

// sloDo issues one tracked request: latency is the client-observed
// round trip, success is an exact reply match.
func sloDo(tr *obs.SLOTracker, c *apptest.Client, tk *sim.Task, cmd, want string) {
	start := tk.Now()
	got := c.Do(tk, cmd)
	tr.Request(got == want, tk.Now()-start)
}

// sloFloorEngine installs the success-rate floor rule on a scenario
// recorder, evaluated against the slo.* windowed series every time a
// timeline window closes. A window that saw no successful completion
// at all scores 0.0 — a dark window is the floor violation, not a
// skipped sample.
func sloFloorEngine(rec *obs.Recorder) *core.HealthEngine {
	eng := core.NewHealthEngine("slo", rec, []core.HealthRule{core.SuccessRateFloorRule(sloSuccessFloor)})
	eng.EmitVerdicts(true)
	rec.OnWindowClose(func(ws obs.WindowSpan) {
		var ok, fail int64
		if p := rec.TimeSeries(obs.CSLORequestsOK).PointAt(ws.Index); p != nil {
			ok = p.Sum
		}
		if p := rec.TimeSeries(obs.CSLORequestsFail).PointAt(ws.Index); p != nil {
			fail = p.Sum
		}
		rate := 0.0
		if ok+fail > 0 {
			rate = float64(ok) / float64(ok+fail)
		}
		eng.Evaluate(fmt.Sprintf("window[%d]", ws.Index), core.HealthSample{core.SignalSuccessRate: rate})
	})
	return eng
}

// sloVerdicts flattens the engines' violation logs into one stream
// ordered by virtual time (ties broken by scope then subject).
func sloVerdicts(engines ...*core.HealthEngine) []SLOVerdictRow {
	var rows []SLOVerdictRow
	for _, e := range engines {
		for _, v := range e.Verdicts() {
			rows = append(rows, SLOVerdictRow{
				AtNS:    int64(v.At),
				Scope:   e.Scope(),
				Subject: v.Subject,
				Rule:    v.Rule,
				Reason:  v.Reason,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].AtNS != rows[j].AtNS {
			return rows[i].AtNS < rows[j].AtNS
		}
		if rows[i].Scope != rows[j].Scope {
			return rows[i].Scope < rows[j].Scope
		}
		return rows[i].Subject < rows[j].Subject
	})
	return rows
}

// sloScopeRows summarizes every scoped registry plus their merge into
// one fresh registry (exercising the deterministic MergeInto path on
// real per-process metrics).
func sloScopeRows(rec *obs.Recorder) ([]SLOScopeRow, *SLOScopeRow) {
	children := rec.Children()
	if len(children) == 0 {
		return nil, nil
	}
	summarize := func(g *obs.Registry) SLOScopeRow {
		return SLOScopeRow{
			Scope: g.Scope(),
			Syscalls: g.Counter(obs.CSyscallsSingle) + g.Counter(obs.CSyscallsLeader) +
				g.Counter(obs.CSyscallsFollower),
			Replayed:    g.Counter(obs.CMVEReplayed),
			Divergences: g.Counter(obs.CMVEDivergences),
		}
	}
	var rows []SLOScopeRow
	merged := obs.NewRegistry("merged")
	for _, child := range children {
		rows = append(rows, summarize(child))
		child.MergeInto(merged)
	}
	m := summarize(merged)
	return rows, &m
}

// finishSLORow computes the run row fields that must be read inside the
// driver, before teardown mutates the world.
func finishSLORow(row *SLORunRow, rec *obs.Recorder, tr *obs.SLOTracker, started time.Duration, engines ...*core.HealthEngine) {
	rec.CloseWindows()
	row.Requests = rec.Counter(obs.CSLORequestsOK) + rec.Counter(obs.CSLORequestsFail)
	row.VirtualMillis = float64(rec.Now()-started) / float64(time.Millisecond)
	opts := tr.Options()
	row.WindowNS = int64(opts.Window)
	row.StallThresholdNS = int64(opts.StallThreshold)
	row.BudgetP99NS = int64(opts.LatencyBudgetP99)
	row.Ledger = tr.Report()
	row.Verdicts = sloVerdicts(engines...)
	row.Scopes, row.ScopesMerged = sloScopeRows(rec)
}

// runSLOUpdateUnderLoad measures availability through a staged update
// whose state transformation is long enough to fill the ring: the
// leader serves in parallel with the transformation (MVEDSUA's core
// win) until FullBlock backpressure parks it, and the resulting gap is
// attributed to the update via stage milestones and the xform span.
func runSLOUpdateUnderLoad() (SLORunRow, error) {
	cfg := core.Config{BufferEntries: 64}
	cfg.Costs = MVECosts(ModeVaran2)
	w := apptest.NewWorld(cfg)
	w.EnableSpanTracing() // xform spans feed the ledger's update attribution
	tr := obs.NewSLOTracker(w.Rec, sloOpts())
	floor := sloFloorEngine(w.Rec)

	srv := kvstore.New(kvstore.SpecFor("2.0.0", false))
	srv.CmdCPU = KVStoreCmdCPU
	w.C.Start(srv)

	row := SLORunRow{
		Name:        "update-under-load",
		Description: "staged update with a 150us-per-entry state transformation under closed-loop load",
	}
	started := w.Rec.Now()
	w.S.Go("driver", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		// Seed the table so the per-entry transformation has real work.
		for i := 0; i < 150; i++ {
			sloDo(tr, c, tk, fmt.Sprintf("SET k%03d v", i), "+OK\r\n")
			tk.Sleep(100 * time.Microsecond)
		}
		promoted, committed := false, false
		for i := 0; i < 400; i++ {
			switch {
			case i == 50:
				w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{
					PerEntryXform: 150 * time.Microsecond,
				}))
			case i >= 300 && !promoted && w.C.Stage() == core.StageOutdatedLeader:
				promoted = w.C.Promote()
			case i >= 360 && !committed && w.C.Stage() == core.StageUpdatedLeader:
				committed = w.C.Commit()
			}
			sloDo(tr, c, tk, "INCR load", fmt.Sprintf(":%d\r\n", i+1))
			tk.Sleep(200 * time.Microsecond)
		}
		row.Outcome = fmt.Sprintf("stage=%s leader=%s", w.C.Stage(), w.C.LeaderRuntime().App().Version())
		finishSLORow(&row, w.Rec, tr, started, floor)
	})
	if err := w.Run(time.Hour); err != nil {
		return row, err
	}
	return row, nil
}

// runSLOFaultRecover measures MTTR through an injected follower stall
// mid-update: the leader parks on the full ring until the watchdog's
// follower-liveness health rule fires and the controller rolls the
// update back. The chaos fault milestone attributes the gap.
func runSLOFaultRecover() (SLORunRow, error) {
	cfg := core.Config{BufferEntries: 16, WatchdogDeadline: 30 * time.Millisecond}
	cfg.Costs = MVECosts(ModeVaran2)
	plan := chaos.NewPlan(&chaos.Injection{
		Role: "follower", Op: sysabi.OpWrite, AfterCalls: 40, Kind: chaos.KindStall,
	})
	cfg.WrapDispatcher = func(role, name string, d sysabi.Dispatcher) sysabi.Dispatcher {
		return chaos.WrapProc(role, name, d, plan)
	}
	w := apptest.NewWorld(cfg)
	plan.Rec = w.Rec
	tr := obs.NewSLOTracker(w.Rec, sloOpts())
	floor := sloFloorEngine(w.Rec)
	w.C.Health().EmitVerdicts(true)

	srv := kvstore.New(kvstore.SpecFor("2.0.0", false))
	srv.CmdCPU = KVStoreCmdCPU
	w.C.Start(srv)

	row := SLORunRow{
		Name:        "fault-and-recover",
		Description: "injected follower stall mid-update; watchdog health rule rolls back and frees the leader",
	}
	started := w.Rec.Now()
	w.S.Go("driver", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		for i := 0; i < 400; i++ {
			if i == 40 {
				w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
			}
			sloDo(tr, c, tk, "INCR load", fmt.Sprintf(":%d\r\n", i+1))
			tk.Sleep(200 * time.Microsecond)
		}
		row.Outcome = fmt.Sprintf("stage=%s leader=%s", w.C.Stage(), w.C.LeaderRuntime().App().Version())
		finishSLORow(&row, w.Rec, tr, started, floor, w.C.Health())
	})
	if err := w.Run(time.Hour); err != nil {
		return row, err
	}
	return row, nil
}

// runSLOCanaryRollback measures a fleet canary failure: the canary
// stalls mid-window, pins the shared ring until backpressure parks the
// leader, and the canary gate's ring-lag health rule rolls it back at
// window close. Scoped registries are on, so the row also carries
// per-process metric summaries and their deterministic merge.
func runSLOCanaryRollback() (SLORunRow, error) {
	cfg := core.FleetConfig{
		Variants: []string{"r1", "r2"},
		Canary:   core.CanaryGate{Window: 150 * time.Millisecond, MaxDivergences: 2, MaxLag: 64},
	}
	cfg.BufferEntries = 128
	cfg.Costs = MVECosts(ModeVaran2)
	plan := chaos.NewPlan(&chaos.Injection{
		Proc: "canary#1@2.0.1", Op: sysabi.OpWrite, AfterCalls: 8, Kind: chaos.KindStall,
	})
	cfg.WrapDispatcher = func(role, name string, d sysabi.Dispatcher) sysabi.Dispatcher {
		return chaos.WrapProc(role, name, d, plan)
	}
	w := apptest.NewFleetWorld(cfg)
	plan.Rec = w.Rec
	w.Rec.EnableScopes()
	tr := obs.NewSLOTracker(w.Rec, sloOpts())
	floor := sloFloorEngine(w.Rec)
	w.C.Health().EmitVerdicts(true)

	srv := kvstore.New(kvstore.SpecFor("2.0.0", false))
	srv.CmdCPU = KVStoreCmdCPU
	w.C.Start(srv)

	row := SLORunRow{
		Name:        "canary-rollback",
		Description: "fleet canary stalls mid-window; the gate's ring-lag rule rolls it back at window close",
	}
	started := w.Rec.Now()
	w.S.Go("driver", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		for i := 0; i < 600; i++ {
			if i == 30 {
				w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
			}
			sloDo(tr, c, tk, "INCR load", fmt.Sprintf(":%d\r\n", i+1))
			tk.Sleep(300 * time.Microsecond)
		}
		row.Outcome = fmt.Sprintf("phase=%s leader=%s rollbacks=%d",
			w.C.Phase(), w.C.LeaderRuntime().App().Version(), w.Rec.Counter(obs.CCanaryRollbacks))
		finishSLORow(&row, w.Rec, tr, started, floor, w.C.Health())
	})
	if err := w.Run(time.Hour); err != nil {
		return row, err
	}
	return row, nil
}

// RunSLOReport executes every availability scenario and assembles the
// report.
func RunSLOReport() (SLOBenchReport, error) {
	report := SLOBenchReport{Schema: SLOSchemaID, Floor: sloSuccessFloor}
	runners := []func() (SLORunRow, error){
		runSLOUpdateUnderLoad,
		runSLOFaultRecover,
		runSLOCanaryRollback,
	}
	for _, run := range runners {
		row, err := run()
		if err != nil {
			return report, fmt.Errorf("slo %s: %w", row.Name, err)
		}
		report.Runs = append(report.Runs, row)
	}
	return report, nil
}

// FormatSLOReport renders the report for the terminal.
func FormatSLOReport(report SLOBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Availability ledger (%s)\n", report.Schema)
	for _, row := range report.Runs {
		l := row.Ledger
		fmt.Fprintf(&b, "\n  %s — %s\n", row.Name, row.Description)
		fmt.Fprintf(&b, "    outcome:      %s\n", row.Outcome)
		fmt.Fprintf(&b, "    availability: %.3f%% over %.1fms (%d requests, %d failed)\n",
			l.AvailabilityPct, row.VirtualMillis, l.Requests, l.Failed)
		fmt.Fprintf(&b, "    downtime:     %v total, longest pause %v, MTTR %v\n",
			time.Duration(l.DowntimeNS), time.Duration(l.LongestPauseNS), time.Duration(l.MTTRNS))
		if l.FaultRecoveryNS > 0 {
			fmt.Fprintf(&b, "    fault recovery: %v (injected fault -> next success)\n",
				time.Duration(l.FaultRecoveryNS))
		}
		fmt.Fprintf(&b, "    budget burn:  %.1f%% of %d windows over p99 budget %v\n",
			l.BudgetBurnPct, l.WindowsTotal, time.Duration(row.BudgetP99NS))
		for _, dw := range l.Downtime {
			fmt.Fprintf(&b, "      pause %8v at %v  cause=%s\n",
				time.Duration(dw.DurationNS), time.Duration(dw.StartNS), dw.Cause)
		}
		for _, v := range row.Verdicts {
			fmt.Fprintf(&b, "      verdict [%s] %s: %s\n", v.Scope, v.Subject, v.Reason)
		}
		for _, s := range row.Scopes {
			fmt.Fprintf(&b, "      scope %-24s syscalls=%d replayed=%d divergences=%d\n",
				s.Scope, s.Syscalls, s.Replayed, s.Divergences)
		}
		if row.ScopesMerged != nil {
			s := row.ScopesMerged
			fmt.Fprintf(&b, "      scope %-24s syscalls=%d replayed=%d divergences=%d\n",
				"(merged)", s.Syscalls, s.Replayed, s.Divergences)
		}
	}
	return b.String()
}
