// Command benchtool regenerates the paper's evaluation artifacts (§6)
// and the experiments that extend them:
//
//	benchtool -experiment table1   # Vsftpd rewrite-rule counts
//	benchtool -experiment table2   # steady-state throughput/overhead
//	benchtool -experiment fig6     # throughput while updating
//	benchtool -experiment fig7     # update pause vs ring-buffer size
//	benchtool -experiment faults   # §6.2 fault-tolerance runs
//	benchtool -experiment metrics  # flight-recorder export
//	benchtool -experiment all      # everything
//
// benchtool -list enumerates every experiment with a one-line
// description; the list is the table in internal/bench/catalog.go, and
// an unknown -experiment name exits 1 with the valid names.
//
// benchtool prints each experiment's text rendering. The committed
// BENCH_*.json artifacts are written and checked by the golden test in
// internal/bench, not by this command:
//
//	go test ./internal/bench -run TestArtifacts          # compare
//	go test ./internal/bench -run TestArtifacts -update  # regenerate
//
// The timeline experiment can also write the traced run's Chrome
// trace_event export (Perfetto-loadable):
//
//	benchtool -experiment timeline -perfetto trace.json
//
// All measurements run in deterministic virtual time; see DESIGN.md for
// the substitution rationale and internal/bench/costmodel.go for the
// calibrated cost constants.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mvedsua/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, runs the selected experiments and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	names = append(names, "all")

	fs := flag.NewFlagSet("benchtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", strings.Join(names, "|"))
	list := fs.Bool("list", false, "list the experiments with one-line descriptions and exit")
	window := fs.Duration("window", bench.DefaultTable2Config.Window, "table2 measurement window (virtual time)")
	full := fs.Bool("full", false, "run fig7 at paper scale (1M entries, 2^24 buffer; slow)")
	perfettoOut := fs.String("perfetto", "", "timeline: write the Chrome trace_event export to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintf(stdout, "  %-10s %s\n", "all", "every experiment above, in order")
		return 0
	}

	var selected []bench.Experiment
	for _, e := range bench.Experiments {
		if *experiment == e.Name || *experiment == "all" {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchtool: unknown experiment %q; valid: %s\n", *experiment, strings.Join(names, ", "))
		return 1
	}

	start := time.Now()
	for _, e := range selected {
		res, err := e.Run(bench.RunOptions{Window: *window, Full: *full})
		if err != nil {
			fmt.Fprintln(stderr, "benchtool:", err)
			return 1
		}
		fmt.Fprintln(stdout, res.Text)
		if *perfettoOut != "" && res.Perfetto != nil {
			if err := writePerfetto(*perfettoOut, res.Perfetto); err != nil {
				fmt.Fprintln(stderr, "benchtool:", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s (Chrome trace_event, load in Perfetto)\n", *perfettoOut)
		}
	}
	fmt.Fprintf(stderr, "(completed in %.1fs wall-clock)\n", time.Since(start).Seconds())
	return 0
}

// writePerfetto validates a Chrome trace_event export and writes it.
func writePerfetto(path string, data []byte) error {
	if err := bench.ValidateChromeTrace(data); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
