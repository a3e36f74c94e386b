package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedSpecIsCurrent keeps BENCHMARK.json and spec.json in
// step with spec.go. Regenerate with
//
//	bash perfbench/run.sh --write-spec .
func TestCommittedSpecIsCurrent(t *testing.T) {
	bench, full, err := specFiles()
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{
		filepath.Join("..", "BENCHMARK.json"): bench,
		"spec.json":                           full,
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; regenerate it with --write-spec", path)
		}
	}
}

func TestSpecFollowsTheContract(t *testing.T) {
	bench, _, err := specFiles()
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(bench, &b); err != nil {
		t.Fatal(err)
	}
	if len(b) != 6 || len(bench) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes", len(b), len(bench))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if !validName(w.Name) || seen[w.Name] || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %q: invalid name, duplicate or bad why", w.Name)
		}
		seen[w.Name] = true
	}
	names := map[string]bool{}
	setup := false
	for _, m := range endToEnd {
		if !validName(m.Name) || !validUnit(m.Unit) || names[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		names[m.Name] = true
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %g is not the largest (%s has %g)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	layerNames := map[string]bool{}
	for _, l := range layers {
		for _, m := range l.Metrics {
			if !validName(m.Name) || !validUnit(m.Unit) || layerNames[m.Name] || names[m.Name] {
				t.Errorf("per-layer metric %+v: invalid or duplicate", m)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			layerNames[m.Name] = true
		}
	}
	if n := len(layerNames); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	// Every workload reports every metric, so each needs a runner and
	// a stated round.
	for _, w := range workloads {
		if runners[w.Name] == nil || w.Round == "" {
			t.Errorf("workload %s has no runner or no round", w.Name)
		}
	}
	if got := len(reported(false)) + len(reported(true)); got != len(names)+len(layerNames) {
		t.Errorf("reported lists %d metrics, %d declared", got, len(names)+len(layerNames))
	}
}
