package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ciflow/internal/workload"
)

// TestMain lets the test binary stand in for the ciflow executable
// when the cluster experiment re-execs itself as shard backends:
// `clusterRun` spawns os.Executable() with "shard" as the first
// argument, which in a test process is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "ciflow:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyClusterConfig is the smallest real fabric: 2 shard processes,
// 2 tenants, the radix-16 bootstrap schedule on a 32-degree ring.
func tinyClusterConfig() clusterConfig {
	return clusterConfig{
		shards: 2, tenants: 2, replicas: 1,
		workload: "bootstrap", bts: 2, radix: 16,
		dfName: "mp", logN: 5, towers: 4, dnum: 2, workers: 2,
		window: time.Millisecond,
	}
}

func TestClusterExperiment(t *testing.T) {
	rep, err := clusterRun(tinyClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clusterCheck(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Drained != -1 {
		t.Fatalf("drained shard %d without -kill", rep.Drained)
	}
	total := uint64(rep.Tenants) * uint64(rep.Predicted.Switches)
	if rep.Served != total || rep.Delivered != total {
		t.Fatalf("served %d, delivered %d, want %d each", rep.Served, rep.Delivered, total)
	}
	if len(rep.PerShard) != 2 {
		t.Fatalf("per-shard rows %d, want 2", len(rep.PerShard))
	}
	for _, s := range rep.PerShard {
		if s.State != "live" {
			t.Fatalf("shard %d state %q, want live", s.Shard, s.State)
		}
	}
}

func TestClusterExperimentKill(t *testing.T) {
	cfg := tinyClusterConfig()
	cfg.shards, cfg.kill = 3, true
	rep, err := clusterRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clusterCheck(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Drained < 0 {
		t.Fatal("no shard drained despite -kill")
	}
	for _, s := range rep.PerShard {
		want := "live"
		if s.Shard == rep.Drained {
			want = "drained"
		}
		if s.State != want {
			t.Fatalf("shard %d state %q, want %q", s.Shard, s.State, want)
		}
	}
}

func TestClusterCmdJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := clusterCmd(tinyClusterConfig(), path, true); err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(path, clusterGate.empty)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 2 || rep.Tenants != 2 || !rep.ShardSumExact || !rep.BitExact {
		t.Fatalf("report from disk: %+v", rep)
	}
}

func TestClusterConfigErrors(t *testing.T) {
	for name, mut := range map[string]func(*clusterConfig){
		"zero shards":   func(c *clusterConfig) { c.shards = 0 },
		"zero tenants":  func(c *clusterConfig) { c.tenants = 0 },
		"kill solo":     func(c *clusterConfig) { c.shards, c.kill = 1, true },
		"fanout":        func(c *clusterConfig) { c.workload = "fanout" },
		"bad workload":  func(c *clusterConfig) { c.workload = "nope" },
		"bad logn":      func(c *clusterConfig) { c.logN = 2 },
		"dnum > towers": func(c *clusterConfig) { c.dnum = 99 },
		"bad bts":       func(c *clusterConfig) { c.bts = 9 },
	} {
		cfg := tinyClusterConfig()
		mut(&cfg)
		if _, err := clusterRun(cfg); err == nil {
			t.Errorf("%s: clusterRun accepted %+v", name, cfg)
		}
	}
	if err := routerCmd(routerConfig{logN: 5, towers: 4, dnum: 2}); err == nil ||
		!strings.Contains(err.Error(), "shardaddrs") {
		t.Errorf("router without -shardaddrs: %v", err)
	}
	if err := shardCmd(shardConfig{tenants: 0, logN: 5, towers: 4, dnum: 2}); err == nil {
		t.Error("shard accepted zero tenants")
	}
}

// goodClusterReport is a self-consistent report that passes
// clusterCheck: 2 tenants x the 13-switch radix-16 bootstrap.
func goodClusterReport() clusterReport {
	return clusterReport{
		N: 32, Towers: 4, Dnum: 2, Workers: 2,
		Shards: 2, Tenants: 2, Replicas: 1, Drained: -1,
		Workload: "bootstrap", Radix: 16, Schedule: "bootstrap-r16",
		Predicted: workload.Counts{
			Switches: 13, ModUps: 9, Coalesced: 6, HoistGroups: 2,
		},
		OpsPerSec: 100,
		Served:    26, ModUps: 18, Groups: 18, Coalesced: 12,
		Delivered: 26, CompletedSum: 26,
		ShardSumExact: true, CountsExact: true, BitExact: true,
		HoistCoalescingFactor: 13.0 / 9,
	}
}

func TestPerfgateCluster(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep clusterReport) string {
		path := filepath.Join(dir, name)
		if err := writeJSONReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("base.json", goodClusterReport())

	if err := perfgatePaths("x", "x", "", "", "", "", basePath, ""); err == nil {
		t.Fatal("-cluster-baseline without -cluster-fresh accepted")
	}

	// The cluster gate composes with the main throughput gate, so
	// feed that one a trivially passing pair.
	tBase := filepath.Join(dir, "tbase.json")
	writeReport(t, tBase, &throughputReport{
		BitExact: true,
		Results:  []throughputRow{{Dataflow: "MP", OpsPerSec: 100}},
	})
	if err := perfgatePaths(tBase, tBase, "", "", "", "", basePath, basePath); err != nil {
		t.Fatalf("identical cluster reports failed the gate: %v", err)
	}

	bad := map[string]func(*clusterReport){
		"regression":   func(r *clusterReport) { r.OpsPerSec = 1 },
		"sum drift":    func(r *clusterReport) { r.ShardSumExact = false },
		"inexact":      func(r *clusterReport) { r.CountsExact = false },
		"not bitexact": func(r *clusterReport) { r.BitExact = false },
		"dep viol":     func(r *clusterReport) { r.DepViolations = 1 },
		"lost result":  func(r *clusterReport) { r.Delivered = 25 },
		"double count": func(r *clusterReport) { r.CompletedSum = 27 },
		"no coalesce":  func(r *clusterReport) { r.HoistCoalescingFactor = 1 },
		"fewer shards": func(r *clusterReport) { r.Shards = 1 },
		"fewer tenants": func(r *clusterReport) {
			r.Tenants = 1
			r.Served, r.Delivered, r.CompletedSum = 13, 13, 13
			r.ModUps, r.Groups, r.Coalesced = 9, 9, 6
		},
	}
	for name, mut := range bad {
		rep := goodClusterReport()
		mut(&rep)
		p := write(strings.ReplaceAll(name, " ", "_")+".json", rep)
		if err := perfgatePaths(tBase, tBase, "", "", "", "", basePath, p); err == nil {
			t.Errorf("%s: cluster gate passed", name)
		}
	}

	// A baseline that drained a shard pins the -kill half of the gate.
	drainedBase := goodClusterReport()
	drainedBase.Drained = 1
	dPath := write("drained_base.json", drainedBase)
	if err := perfgatePaths(tBase, tBase, "", "", "", "", dPath, basePath); err == nil {
		t.Error("fresh run without a drain passed against a drained baseline")
	}
	if err := perfgatePaths(tBase, tBase, "", "", "", "", dPath, dPath); err != nil {
		t.Errorf("drained pair failed: %v", err)
	}

	if err := perfgatePaths(tBase, tBase, "", "", "", "", dir+"/missing.json", basePath); err == nil {
		t.Error("missing cluster baseline accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := perfgatePaths(tBase, tBase, "", "", "", "", empty, basePath); err == nil {
		t.Error("empty cluster baseline accepted")
	}
}
