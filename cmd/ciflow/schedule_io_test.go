package main

// Tests for the schedule import/export surface of the CLI: the
// schedule verb's -export/-import round trip, the file:<path> workload
// source, the new library shapes, and the scenario half of the perf
// gate.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ciflow/internal/workload"
)

// pirGolden is the committed pir scenario golden, the same file the CI
// smoke job replays.
const pirGolden = "../../internal/workload/testdata/pir.schedule.json"

func TestScheduleExportImportVerb(t *testing.T) {
	dir := t.TempDir()
	exported := filepath.Join(dir, "pir.schedule.json")
	args := []string{"schedule", "-workload", "pir",
		"-rotations", "4", "-requests", "2", "-export", exported}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}

	// The exported file is a valid canonical schedule in its own right.
	sched, err := workload.ImportFile(exported)
	if err != nil {
		t.Fatalf("exported schedule does not import: %v", err)
	}
	if sched.Name != "pir-2x4" {
		t.Fatalf("exported schedule %q", sched.Name)
	}

	// -import prices the file like any generated schedule and reports
	// the same counts; -export alongside re-emits identical bytes.
	jsonPath := filepath.Join(dir, "report.json")
	reExported := filepath.Join(dir, "again.schedule.json")
	args = []string{"schedule", "-import", exported,
		"-json", jsonPath, "-export", reExported}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scheduleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "import" || rep.Schedule != "pir-2x4" {
		t.Fatalf("imported report names: %+v", rep)
	}
	if want := sched.Counts(); !reflect.DeepEqual(rep.Counts, want) {
		t.Fatalf("imported counts %+v, want %+v", rep.Counts, want)
	}
	a, err := os.ReadFile(exported)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(reExported)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("export→import→export not byte-stable through the CLI")
	}
}

func TestScheduleImportVerbErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.schedule.json")
	if err := os.WriteFile(bad, []byte(`{"version":9,"name":"x","nodes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"schedule", "-import", filepath.Join(dir, "missing.json")},
		{"schedule", "-import", bad},
		{"schedule", "-workload", "pir", "-rotations", "1"},
		{"schedule", "-workload", "evalmod", "-bts", "7"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	err := run([]string{"schedule", "-import", bad})
	if err == nil || !strings.Contains(err.Error(), "version 9 not supported") {
		t.Fatalf("unsupported version error: %v", err)
	}
}

// TestWorkloadRunLibraryShapes replays the new generator shapes end to
// end on a tiny ring, holding the tentpole invariant for each:
// measured serve counters — per level included — equal the schedule's
// predictions exactly.
func TestWorkloadRunLibraryShapes(t *testing.T) {
	for name, cfg := range map[string]workloadConfig{
		"pir": func() workloadConfig {
			c := testWorkloadConfig()
			c.workload, c.giants, c.rotations, c.dnum = "pir", 2, 4, 2
			return c
		}(),
		"private-inference": func() workloadConfig {
			c := testWorkloadConfig()
			c.workload, c.rotations, c.giants, c.dnum = "private-inference", 3, 2, 2
			return c
		}(),
		"evalmod": func() workloadConfig {
			c := testWorkloadConfig()
			c.workload, c.dnum = "evalmod", 2
			return c
		}(),
	} {
		rep, err := workloadRun(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := rep.Predicted
		if rep.Served != uint64(p.Switches) || rep.ModUps != uint64(p.ModUps) ||
			rep.Coalesced != uint64(p.Coalesced) {
			t.Fatalf("%s: measured (%d, %d, %d) != predicted (%d, %d, %d)",
				name, rep.Served, rep.ModUps, rep.Coalesced, p.Switches, p.ModUps, p.Coalesced)
		}
		if err := workloadCheck(rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "evalmod" && (p.HoistGroups != 0 || rep.Coalesced != 0) {
			t.Fatalf("evalmod replay coalesced: %+v", rep)
		}
	}
}

// TestWorkloadRunFile replays the committed pir golden through the
// serving layer — the same path as `ciflow serve -workload file:...`
// and the CI scenario smoke job.
func TestWorkloadRunFile(t *testing.T) {
	cfg := testWorkloadConfig()
	cfg.workload = "file:" + pirGolden
	cfg.towers, cfg.dnum = 6, 2 // the scenario tops out at level 5
	rep, err := workloadRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedule != "pir-4x16" {
		t.Fatalf("schedule %q, want the golden's pir-4x16", rep.Schedule)
	}
	p := rep.Predicted
	if rep.Served != uint64(p.Switches) || rep.ModUps != uint64(p.ModUps) ||
		rep.Coalesced != uint64(p.Coalesced) {
		t.Fatalf("measured (%d, %d, %d) != predicted (%d, %d, %d)",
			rep.Served, rep.ModUps, rep.Coalesced, p.Switches, p.ModUps, p.Coalesced)
	}
	if err := workloadCheck(rep); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadRunFileErrors(t *testing.T) {
	// A schedule above the replay ring's top level names the node and
	// the fix.
	cfg := testWorkloadConfig()
	cfg.workload, cfg.dnum = "file:"+pirGolden, 2 // towers 4 → top level 3
	_, err := workloadRun(cfg)
	if err == nil || !strings.Contains(err.Error(), "raise -towers") {
		t.Fatalf("level overflow error: %v", err)
	}
	cfg = testWorkloadConfig()
	cfg.workload = "file:" + filepath.Join(t.TempDir(), "missing.json")
	if _, err := workloadRun(cfg); err == nil {
		t.Fatal("missing schedule file replayed")
	}
}

// TestPerfgateScenario exercises the scenario half of the gate: the
// same workload-replay invariants applied to the imported library
// scenario's report pair, including the evalmod-style case where zero
// hoist groups is the prediction, not a vacated gate.
func TestPerfgateScenario(t *testing.T) {
	dir := t.TempDir()
	basePath := dir + "/thr_base.json"
	writeReport(t, basePath, &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "serial", OpsPerSec: 100}},
	})

	healthy := func() *workloadReport {
		rep := &workloadReport{
			Schedule: "pir-4x16", OpsPerSec: 80,
			Served: 68, ModUps: 8, Coalesced: 64,
			CountsExact: true, BitExact: true,
			HoistCoalescingFactor: 16,
		}
		rep.Predicted.Switches = 68
		rep.Predicted.ModUps = 8
		rep.Predicted.HoistGroups = 4
		rep.Predicted.Depth = 2
		return rep
	}
	sBase := dir + "/scenario_base.json"
	writeWorkloadReport(t, sBase, healthy())
	gate := func(fresh string) error {
		return perfgate(map[string][2]string{"engine": {basePath, basePath}, "scenario": {sBase, fresh}})
	}
	if err := gate(sBase); err != nil {
		t.Fatalf("perfgate failed on a healthy scenario report: %v", err)
	}

	for name, mut := range map[string]func(*workloadReport){
		"regression": func(r *workloadReport) { r.OpsPerSec = 10 },
		"inexact":    func(r *workloadReport) { r.BitExact = false },
		"drift":      func(r *workloadReport) { r.CountsExact = false },
		"dep-order":  func(r *workloadReport) { r.DepViolations = 1 },
		"flat":       func(r *workloadReport) { r.Predicted.HoistGroups = 0 },
		"no-coalescing": func(r *workloadReport) {
			r.HoistCoalescingFactor = 1
		},
	} {
		bad := healthy()
		mut(bad)
		p := dir + "/scenario_" + name + ".json"
		writeWorkloadReport(t, p, bad)
		if err := gate(p); err == nil {
			t.Errorf("%s: perfgate passed a degraded scenario report", name)
		}
	}

	// A scenario with no hoistable fan-out (evalmod) passes when the
	// baseline predicts none either: the factor check is conditional
	// on the schedule actually having groups, while the baseline pin
	// still catches a gate vacated by swapping schedules.
	chain := healthy()
	chain.Schedule = "evalmod-6"
	chain.Served, chain.ModUps, chain.Coalesced = 6, 6, 0
	chain.Predicted.Switches, chain.Predicted.ModUps = 6, 6
	chain.Predicted.HoistGroups = 0
	chain.Predicted.Depth = 6
	chain.HoistCoalescingFactor = 0
	cBase := dir + "/scenario_chain.json"
	writeWorkloadReport(t, cBase, chain)
	if err := perfgate(map[string][2]string{"engine": {basePath, basePath}, "scenario": {cBase, cBase}}); err != nil {
		t.Fatalf("perfgate rejected an honest hoist-free scenario: %v", err)
	}

	// Half-specified scenario gate flags error out.
	if err := perfgate(map[string][2]string{"engine": {basePath, basePath}, "scenario": {sBase, ""}}); err == nil || !strings.Contains(err.Error(), "-scenario-baseline and -scenario-fresh") {
		t.Fatalf("half-specified scenario gate: %v", err)
	}
}
