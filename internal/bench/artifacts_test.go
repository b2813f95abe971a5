package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateArtifacts = flag.Bool("update", false, "rewrite the committed BENCH_*.json artifacts from a fresh run")

// updateCommand rewrites every committed artifact from a fresh run.
const updateCommand = "go test ./internal/bench -run TestArtifacts -update"

// artifactPath locates a committed artifact from this package's directory.
func artifactPath(file string) string { return filepath.Join("..", "..", file) }

// checkArtifact compares a fresh run with the committed artifact bytes
// using the experiment's comparator, and names the file and the
// regeneration command on a mismatch.
func checkArtifact(e *Experiment, committed []byte, fresh Result) error {
	compare := e.Compare
	if compare == nil {
		compare = sameBytes
	}
	if err := compare(committed, fresh); err != nil {
		return fmt.Errorf("%s does not match a fresh run: %v\nregenerate with: %s", e.File, err, updateCommand)
	}
	return nil
}

// TestArtifacts is the golden gate for every committed BENCH_*.json:
// each artifact experiment runs once and must match the committed file
// under its entry's comparator. The runs are virtual-time deterministic,
// so a mismatch means the code changed what an experiment measures; if
// that was intended, regenerate with updateCommand.
func TestArtifacts(t *testing.T) {
	for i := range Experiments {
		e := &Experiments[i]
		if e.File == "" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			fresh, err := e.Run(RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if *updateArtifacts {
				// Comparing the fresh run with itself still runs the
				// comparator's validation (schema, Chrome trace).
				if err := checkArtifact(e, fresh.Artifact, fresh); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(artifactPath(e.File), fresh.Artifact, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			committed, err := os.ReadFile(artifactPath(e.File))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkArtifact(e, committed, fresh); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestArtifactTableCoversRepo requires a one-to-one map between the
// BENCH_*.json files in the repository root and the table's entries,
// and unique experiment names.
func TestArtifactTableCoversRepo(t *testing.T) {
	onDisk, err := filepath.Glob(artifactPath("BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]int{}
	names := map[string]bool{}
	for _, e := range Experiments {
		if names[e.Name] || e.Name == "all" {
			t.Errorf("experiment name %q is duplicated or reserved", e.Name)
		}
		names[e.Name] = true
		if e.File != "" {
			entries[e.File]++
			if _, err := os.Stat(artifactPath(e.File)); err != nil {
				t.Errorf("%s: %v", e.Name, err)
			}
		}
	}
	for _, path := range onDisk {
		if n := entries[filepath.Base(path)]; n != 1 {
			t.Errorf("%s has %d table entries, want 1", filepath.Base(path), n)
		}
	}
	if len(entries) != len(onDisk) {
		t.Errorf("table names %d artifacts, repository root has %d", len(entries), len(onDisk))
	}
}

// TestArtifactCheckRejectsFlippedByte feeds every comparator the
// committed artifact as the fresh run and a copy with one byte of the
// schema id changed as the committed file: each must fail, naming the
// file and the regeneration command.
func TestArtifactCheckRejectsFlippedByte(t *testing.T) {
	for i := range Experiments {
		e := &Experiments[i]
		if e.File == "" {
			continue
		}
		good, err := os.ReadFile(artifactPath(e.File))
		if err != nil {
			t.Fatal(err)
		}
		// The schema id is a deterministic field in every artifact, so
		// even the perf comparator, which ignores wall-clock fields,
		// must notice it.
		at := bytes.Index(good, []byte(`"schema": "`))
		if at < 0 {
			t.Fatalf("%s: no schema field", e.File)
		}
		at += len(`"schema": "`)
		flipped := append([]byte(nil), good...)
		flipped[at] ^= 0x01
		err = checkArtifact(e, flipped, Result{Artifact: good})
		if err == nil {
			t.Errorf("%s: one flipped byte accepted", e.File)
			continue
		}
		for _, want := range []string{e.File, updateCommand} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", e.File, err, want)
			}
		}
	}
}
