package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mvedsua/internal/rolling"
)

// This file is the experiment table: every benchtool experiment, in the
// order `-experiment all` runs them, and for the ones with a committed
// BENCH_*.json artifact the file name and how a fresh run is compared
// with it. cmd/benchtool dispatches over the table, and TestArtifacts
// regenerates and checks every artifact from it.

// RunOptions are the benchtool knobs an experiment may read.
type RunOptions struct {
	Window time.Duration // table2 measurement window (virtual time); 0 keeps the default
	Full   bool          // fig7 at paper scale
}

// Result is one experiment run.
type Result struct {
	Text     string // the human-readable rendering benchtool prints
	Artifact []byte // the indented JSON report, for experiments that emit one
	Perfetto []byte // timeline only: the Chrome trace_event export
}

// Experiment is one row of the table.
type Experiment struct {
	Name, Desc string
	Run        func(RunOptions) (Result, error)

	// File is the committed artifact in the repository root, or "".
	File string
	// Compare checks a fresh run against the committed artifact bytes
	// (TestArtifacts); nil means the artifact must be byte-identical.
	Compare func(committed []byte, fresh Result) error
}

// Experiments is the table, in run order.
var Experiments = []Experiment{
	{Name: "table1", Desc: "Vsftpd rewrite-rule counts (paper Table 1)",
		Run: textOf(func(RunOptions) (string, error) { return FormatTable1(Table1()), nil })},
	{Name: "table2", Desc: "steady-state throughput and MVE overhead (paper Table 2)",
		Run: textOf(func(o RunOptions) (string, error) {
			cfg := DefaultTable2Config
			if o.Window > 0 {
				cfg.Window = o.Window
			}
			cells, err := Table2(cfg)
			if err != nil {
				return "", err
			}
			return FormatTable2(cells), nil
		})},
	{Name: "fig6", Desc: "throughput timeline while updating (paper Figure 6)",
		Run: textOf(func(RunOptions) (string, error) {
			results, err := Fig6(DefaultFig6Config)
			if err != nil {
				return "", err
			}
			return FormatFig6(results), nil
		})},
	{Name: "fig7", Desc: "update pause vs ring-buffer size (paper Figure 7)",
		Run: textOf(func(o RunOptions) (string, error) {
			cfg := DefaultFig7Config
			if o.Full {
				cfg = Fig7Config{Entries: 1 << 20, PostUpdate: 20 * time.Second}
			}
			results, err := Fig7(cfg)
			if err != nil {
				return "", err
			}
			return FormatFig7(results, cfg), nil
		})},
	{Name: "faults", Desc: "fault-tolerance runs: divergence, rollback, retry (paper 6.2)",
		Run: textOf(func(RunOptions) (string, error) { return FormatFaults(Faults()), nil })},
	{Name: "chaos", Desc: "seeded fault-injection matrix across syscalls and kinds",
		Run: textOf(func(RunOptions) (string, error) { return FormatChaos(ChaosSweep()), nil })},
	{Name: "rolling", Desc: "rolling-upgrade comparison vs MVEDSUA (paper 1.1 extension)",
		Run: textOf(func(RunOptions) (string, error) {
			results, err := rolling.Compare(4, 20000, "2.0.0", "2.0.1")
			if err != nil {
				return "", err
			}
			return rolling.FormatComparison(results), nil
		})},
	{Name: "metrics", Desc: "flight-recorder export -> BENCH_metrics.json",
		Run: reportOf(RunMetricsReport, FormatMetricsReport), File: "BENCH_metrics.json",
		Compare: func(committed []byte, fresh Result) error {
			if err := ValidateMetricsReport(fresh.Artifact, MetricsSchemaJSON); err != nil {
				return err
			}
			return sameBytes(committed, fresh)
		}},
	{Name: "perf", Desc: "perf-trajectory baseline + shard speedup curve -> BENCH_perf.json",
		Run: reportOf(RunPerfReport, FormatPerfReport), File: "BENCH_perf.json",
		Compare: func(committed []byte, fresh Result) error {
			return ComparePerfReports(committed, fresh.Artifact)
		}},
	{Name: "timeline", Desc: "span tracing + request latency attribution -> BENCH_timeline.json",
		Run: func(RunOptions) (Result, error) {
			report, perfetto, err := RunTimelineReport()
			if err != nil {
				return Result{}, err
			}
			res, err := encode(report, FormatTimelineReport(report))
			res.Perfetto = perfetto
			return res, err
		},
		File: "BENCH_timeline.json",
		Compare: func(committed []byte, fresh Result) error {
			if err := sameBytes(committed, fresh); err != nil {
				return err
			}
			return ValidateChromeTrace(fresh.Perfetto)
		}},
	{Name: "nvariant", Desc: "N-variant fleet: quorum verdicts + canary gates -> BENCH_nvariant.json",
		Run: reportOf(RunNVariantReport, FormatNVariantReport), File: "BENCH_nvariant.json"},
	{Name: "slo", Desc: "availability ledger: SLO windows, MTTR, pause attribution -> BENCH_slo.json",
		Run: reportOf(RunSLOReport, FormatSLOReport), File: "BENCH_slo.json"},
	{Name: "train", Desc: "update trains: eager vs lazy state transformation -> BENCH_train.json",
		Run: reportOf(RunTrainReport, FormatTrainReport), File: "BENCH_train.json"},
	{Name: "profile", Desc: "virtual-clock profiler: exact duo/fleet/sweep time attribution -> BENCH_profile.json",
		Run: reportOf(RunProfileReport, FormatProfileReport), File: "BENCH_profile.json"},
	{Name: "sharddet", Desc: "sharded-runtime determinism smoke: parallel shards, cross-shard update trigger",
		Run: reportOf(RunShardDetReport, FormatShardDetReport)},
}

// sameBytes is the default comparator: the artifact is byte-identical.
func sameBytes(committed []byte, fresh Result) error {
	if bytes.Equal(committed, fresh.Artifact) {
		return nil
	}
	n := 0
	for n < len(committed) && n < len(fresh.Artifact) && committed[n] == fresh.Artifact[n] {
		n++
	}
	return fmt.Errorf("first difference at line %d", 1+bytes.Count(committed[:n], []byte("\n")))
}

// textOf wraps an experiment that only renders text.
func textOf(run func(RunOptions) (string, error)) func(RunOptions) (Result, error) {
	return func(o RunOptions) (Result, error) {
		text, err := run(o)
		return Result{Text: text}, err
	}
}

// reportOf wraps an experiment that builds a report: the text is its
// rendering and the artifact its JSON.
func reportOf[R any](run func() (R, error), format func(R) string) func(RunOptions) (Result, error) {
	return func(RunOptions) (Result, error) {
		r, err := run()
		if err != nil {
			return Result{}, err
		}
		return encode(r, format(r))
	}
}

// encode pairs a report's text rendering with its indented JSON,
// newline-terminated.
func encode(report any, text string) (Result, error) {
	data, err := json.MarshalIndent(report, "", "  ")
	return Result{Text: text, Artifact: append(data, '\n')}, err
}
