package main

import (
	"bytes"
	"strings"
	"testing"

	"mvedsua/internal/bench"
)

// An unknown -experiment name must fail, not run nothing and exit 0,
// and must say which names are valid.
func TestUnknownExperimentExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "tabel1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment printed to stdout: %q", stdout.String())
	}
	for _, e := range bench.Experiments {
		if !strings.Contains(stderr.String(), e.Name) {
			t.Errorf("error %q does not list %q", stderr.String(), e.Name)
		}
	}
}

// -list prints one line per table entry plus "all", in table order.
func TestListFollowsTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(bench.Experiments)+1 {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(bench.Experiments)+1, stdout.String())
	}
	for i, e := range bench.Experiments {
		if got := strings.Fields(lines[i])[0]; got != e.Name {
			t.Errorf("line %d lists %q, want %q", i, got, e.Name)
		}
	}
}
