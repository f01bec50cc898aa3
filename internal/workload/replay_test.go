package workload

import (
	"context"
	"strings"
	"testing"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/serve"
)

// testService stands up a one-tenant service over a tiny ring, tuned
// for exact-count replay of s.
func testService(t *testing.T, s *Schedule, towers, dnum int) (*serve.Service, *ckks.Context, serve.KeyChains, func()) {
	t.Helper()
	cctx, err := ckks.NewContext(32, towers, 40, 3, 41, dnum)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := ckks.GenKeys(cctx, 1)
	chains := serve.KeyChains{"t0": kc}
	e := engine.New(2)
	cfg := ReplayServiceConfig(s)
	cfg.Engine = e
	svc, err := serve.New(cctx.Switchers(), chains, cfg)
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return svc, cctx, chains, func() {
		svc.Close()
		e.Close()
	}
}

func replayOnce(t *testing.T, s *Schedule, df dataflow.Dataflow) *ReplayResult {
	t.Helper()
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	res, err := Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R,
		s, ReplayConfig{Tenant: "t0", Dataflow: df, Seed: 7, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertExact(t *testing.T, res *ReplayResult) {
	t.Helper()
	if !res.CountsExact {
		t.Fatalf("measured counters drifted from the schedule: %v", res.Mismatches)
	}
	if !res.Checked || !res.BitExact {
		t.Fatalf("serial reference check failed: checked=%v bitExact=%v %v",
			res.Checked, res.BitExact, res.Mismatches)
	}
	if res.DepViolations != 0 {
		t.Fatalf("%d dependency-order violations", res.DepViolations)
	}
}

func TestReplayBootstrap(t *testing.T) {
	// Ring N=32 (16 slots), 4 towers: one DFT stage per half at
	// levels 3 and 1, relin at 2 — 3 babies + 3 giants per stage.
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.MP)
	assertExact(t, res)
	p := s.Counts()
	if res.Served != uint64(p.Switches) || res.ModUps != uint64(p.ModUps) {
		t.Fatalf("measured served=%d modUps=%d, predicted %+v", res.Served, res.ModUps, p)
	}
	// The baby fan-outs must actually coalesce: factor inside hoist
	// groups above 1, and with exact counts there were zero coalesces
	// outside them.
	if res.HoistCoalescingFactor <= 1 {
		t.Fatalf("hoist coalescing factor %.2f", res.HoistCoalescingFactor)
	}
}

func TestReplayMatvec(t *testing.T) {
	s, err := Matvec(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.OC)
	assertExact(t, res)
	if res.Coalesced != 3 || res.ModUps != 3 {
		t.Fatalf("matvec measured coalesced=%d modUps=%d", res.Coalesced, res.ModUps)
	}
}

func TestReplayFanout(t *testing.T) {
	s, err := Fanout(3, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.DC)
	assertExact(t, res)
	if res.Coalesced != 12 {
		t.Fatalf("fanout coalesced %d, want 12", res.Coalesced)
	}
}

// A multi-level chain: levels descend along the dependency edges, so
// derived inputs are restricted to sub-bases and each level routes to
// its own switcher.
func TestReplayLevelDescent(t *testing.T) {
	b := &builder{name: "descent"}
	top := b.group("top", 3, nil, []int{1, 2})
	mid := b.node("mid", Rotate, 3, 2, top)
	b.group("bottom", 1, []int{mid}, []int{1, 2, 4})
	s, err := b.schedule()
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, s, dataflow.MP)
	assertExact(t, res)
	if res.ModUps != 3 {
		t.Fatalf("level-descent ModUps %d, want 3", res.ModUps)
	}
}

// Replays on one schedule are deterministic: same seed, same keys,
// bit-exact across dataflows (the dataflow shapes scheduling, never
// values).
func TestReplayDataflowsAgree(t *testing.T) {
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, df := range []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC} {
		assertExact(t, replayOnce(t, s, df))
	}
}

func TestReplayRejectsInvalidSchedule(t *testing.T) {
	s, err := Fanout(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Nodes[1].Group = 9
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	if _, err := Replay(context.Background(), svc, cctx.Switchers(), chains, cctx.R,
		s, ReplayConfig{Tenant: "t0"}); err == nil {
		t.Fatal("invalid schedule replayed")
	}
}

func TestReplayCancelled(t *testing.T) {
	s, err := Fanout(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc, cctx, chains, stop := testService(t, s, 4, 2)
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, svc, cctx.Switchers(), chains, cctx.R,
		s, ReplayConfig{Tenant: "t0"}); err == nil {
		t.Fatal("cancelled replay succeeded")
	}
}

// CompareBooks accepts books equal to copies x the prediction and names
// every diverging counter, with the nodes at a diverging level.
func TestCompareBooks(t *testing.T) {
	s, err := Bootstrap(BootstrapParams{LogSlots: 4, Radix: 16, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := s.Counts()
	books := func(copies uint64) serve.Stats {
		st := serve.Stats{
			Served: copies * uint64(pred.Switches), ModUps: copies * uint64(pred.ModUps),
			Groups: copies * uint64(pred.ModUps), Coalesced: copies * uint64(pred.Coalesced),
		}
		for _, p := range pred.PerLevel {
			st.PerLevel = append(st.PerLevel, serve.LevelStats{Level: p.Level,
				Switches: copies * uint64(p.Switches), ModUps: copies * uint64(p.ModUps),
				Coalesced: copies * uint64(p.Coalesced)})
		}
		return st
	}
	for _, copies := range []int{1, 3} {
		if m := s.CompareBooks(pred, books(uint64(copies)), copies); len(m) != 0 {
			t.Fatalf("exact books x%d rejected: %v", copies, m)
		}
	}
	if m := s.CompareBooks(pred, books(1), 2); len(m) == 0 {
		t.Fatal("one copy's books accepted as two")
	}

	split := books(2)
	split.PerLevel[0].ModUps++
	m := s.CompareBooks(pred, split, 2)
	if len(m) != 1 || !strings.Contains(m[0], "nodes at this level") {
		t.Fatalf("split group at level %d: %v", split.PerLevel[0].Level, m)
	}

	stray := books(1)
	stray.PerLevel = append(stray.PerLevel, serve.LevelStats{Level: 9, Switches: 1})
	if m := s.CompareBooks(pred, stray, 1); len(m) != 1 || !strings.Contains(m[0], "predicts none") {
		t.Fatalf("switch at an unscheduled level: %v", m)
	}
}

// Verdict fails on each broken invariant and passes a hoist-free
// schedule on its exact counts alone.
func TestReplayVerdict(t *testing.T) {
	good := func() *ReplayResult {
		r := &ReplayResult{CountsExact: true, Checked: true, BitExact: true, HoistCoalescingFactor: 3}
		r.Predicted.HoistGroups = 2
		return r
	}
	if err := good().Verdict(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*ReplayResult){
		"unchecked":  func(r *ReplayResult) { r.Checked = false },
		"inexact":    func(r *ReplayResult) { r.BitExact = false },
		"drift":      func(r *ReplayResult) { r.CountsExact = false },
		"dep-order":  func(r *ReplayResult) { r.DepViolations = 1 },
		"no-coalesc": func(r *ReplayResult) { r.HoistCoalescingFactor = 1 },
	} {
		r := good()
		mut(r)
		if r.Verdict() == nil {
			t.Errorf("%s: verdict passed", name)
		}
	}
	chain := good()
	chain.Predicted.HoistGroups, chain.HoistCoalescingFactor = 0, 0
	if err := chain.Verdict(); err != nil {
		t.Errorf("hoist-free replay rejected: %v", err)
	}
}
