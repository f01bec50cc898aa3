package main

// perfgate is the CI performance-regression gate: it compares fresh
// reports (make bench) against committed baselines, one table row per
// report kind. Every row reads its pair with the same generic reader,
// fails only on gross ops/sec regressions — the baseline and the CI
// runner are different machines, so the tolerance catches
// order-of-magnitude breakage (an accidentally serialized hot path, a
// lost pool), not noise — and then applies two machine-independent
// layers: the kind's own acceptance bar (the function behind its
// -check flag) to the fresh report, and the baseline-vs-fresh pins,
// so a bench run with a smaller shape, or without a flag that fills
// part of the report, cannot pass just because its own invariants
// hold.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"ciflow/internal/obs"
)

// maxRegression is the allowed ops/sec drop: a fresh rate fails only
// below 1/maxRegression of its baseline.
const maxRegression = 2

// opsRate is one gated ops/sec figure. The label pairs it with its
// baseline figure and names it in the output; empty means the row's
// kind.
type opsRate struct {
	label  string
	perSec float64
}

// reportGate is the gate of one report kind R.
type reportGate[R any] struct {
	empty   func(*R) bool                 // the report measured nothing
	rates   func(*R) []opsRate            // its ops/sec figures
	check   func(*R) error                // the kind's -check acceptance bar
	pins    func(base, fresh *R) []string // baseline-vs-fresh pins
	summary func(*R) string               // one informational line
}

// readReport decodes one JSON report and rejects a report that
// measured nothing.
func readReport[R any](path string, empty func(*R) bool) (*R, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep R
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if empty(&rep) {
		return nil, fmt.Errorf("%s: report measured nothing", path)
	}
	return &rep, nil
}

// gate reads one report pair and returns the fresh report's failures,
// each prefixed with the row's kind.
func (g reportGate[R]) gate(kind, basePath, freshPath string) ([]string, error) {
	base, err := readReport(basePath, g.empty)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", kind, err)
	}
	fresh, err := readReport(freshPath, g.empty)
	if err != nil {
		return nil, fmt.Errorf("%s fresh: %w", kind, err)
	}
	var failures []string
	baseRates := map[string]float64{}
	for _, r := range g.rates(base) {
		baseRates[r.label] = r.perSec
	}
	for _, r := range g.rates(fresh) {
		label := r.label
		if label == "" {
			label = kind
		}
		b, ok := baseRates[r.label]
		if !ok {
			fmt.Printf("%-8s %14s %14.2f %8s %6s\n", label, "-", r.perSec, "-", "new")
			continue
		}
		status := "ok"
		if r.perSec*maxRegression < b {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.2f ops/sec vs baseline %.2f (>%dx regression)",
				label, r.perSec, b, maxRegression))
		}
		fmt.Printf("%-8s %14.2f %14.2f %7.2fx %6s\n", label, b, r.perSec, r.perSec/b, status)
	}
	if err := g.check(fresh); err != nil {
		failures = append(failures, kind+": "+err.Error())
	}
	for _, p := range g.pins(base, fresh) {
		failures = append(failures, kind+": "+p)
	}
	fmt.Printf("%s %s\n", kind, g.summary(fresh))
	return failures, nil
}

// gateRow is one report kind of the gate. Its flags are
// -<kind>-baseline and -<kind>-fresh (-baseline and -fresh for the
// engine row). A row with default paths is always gated; the others
// only when both of their flags are given.
type gateRow struct {
	kind            string
	baseline, fresh string // default paths
	gate            func(kind, basePath, freshPath string) ([]string, error)
}

func (r gateRow) flagNames() (string, string) {
	if r.kind == "engine" {
		return "baseline", "fresh"
	}
	return r.kind + "-baseline", r.kind + "-fresh"
}

// gateRows is the gate, in the order the bench harness writes the
// reports. The workload row gates the generated bench schedule and the
// scenario row the imported library scenario, with the same rules.
var gateRows = []gateRow{
	{kind: "engine", baseline: "BENCH_engine.json", fresh: "bench_fresh.json", gate: engineGate.gate},
	{kind: "serve", gate: serveGate.gate},
	{kind: "workload", gate: replayGate.gate},
	{kind: "scenario", gate: replayGate.gate},
	{kind: "cluster", gate: clusterGate.gate},
}

// perfgate runs every row of the gate whose report pair is given;
// paths maps a row's kind to its (baseline, fresh) paths.
func perfgate(paths map[string][2]string) error {
	for _, r := range gateRows {
		p := paths[r.kind]
		b, f := r.flagNames()
		if (p[0] == "") != (p[1] == "") {
			return fmt.Errorf("-%s and -%s must be given together", b, f)
		}
		if r.baseline != "" && p[0] == "" {
			return fmt.Errorf("-%s and -%s are required", b, f)
		}
	}
	var failures []string
	fmt.Printf("Perf gate: fail below 1/%dx of the baseline ops/sec\n", maxRegression)
	fmt.Printf("%-8s %14s %14s %8s %6s\n", "report", "baseline op/s", "fresh op/s", "ratio", "gate")
	for _, r := range gateRows {
		p := paths[r.kind]
		if p[0] == "" {
			continue
		}
		f, err := r.gate(r.kind, p[0], p[1])
		if err != nil {
			return err
		}
		failures = append(failures, f...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "perf regression:", f)
		}
		return fmt.Errorf("%d perf gate failure(s)", len(failures))
	}
	fmt.Println("perf gate passed")
	return nil
}

// one is the rates of a report with a single ops/sec figure.
func one(perSec float64) []opsRate { return []opsRate{{perSec: perSec}} }

var engineGate = reportGate[throughputReport]{
	empty: func(r *throughputReport) bool { return len(r.Results) == 0 },
	rates: func(r *throughputReport) []opsRate {
		var out []opsRate
		for _, row := range r.Results {
			out = append(out, opsRate{row.Dataflow, row.OpsPerSec})
		}
		return out
	},
	check: throughputCheck,
	pins: func(base, fresh *throughputReport) []string {
		var out []string
		profiled := map[string]bool{}
		for _, row := range base.Results {
			profiled[row.Dataflow] = len(row.StageShares) > 0
		}
		for _, row := range fresh.Results {
			if profiled[row.Dataflow] && len(row.StageShares) == 0 {
				out = append(out, row.Dataflow+": baseline has stage shares but the fresh report does not (bench run without -profile?)")
			}
		}
		if base.Hoisted != nil && fresh.Hoisted == nil {
			out = append(out, "baseline has a hoisted section but the fresh report does not (bench run without -hoisted?)")
		}
		return out
	},
	summary: func(r *throughputReport) string {
		s := fmt.Sprintf("%d dataflows, %d workers, bit-exact %v", len(r.Results), r.Workers, r.BitExact)
		for _, row := range r.Results {
			if row.Dataflow == "serial" && len(row.StageShares) > 0 {
				s += fmt.Sprintf(", serial stage shares sum %.3f of wall", obs.SumShares(row.StageShares))
			}
		}
		if h := r.Hoisted; h != nil {
			for _, row := range h.Results {
				s += fmt.Sprintf(", hoisted %s %.2fx vs per-rotation (model %.2fx)", row.Dataflow, row.MeasuredSpeedup, h.ModelSpeedup)
			}
		}
		return s
	},
}

// throughputCheck is the throughput report's acceptance bar. The
// engine's outputs must be bit-exact with the serial pipeline. Stage
// shares must add up: the serial row runs the switch on one goroutine
// with no engine underneath, so its profiled stages tile its wall time
// (share sum within 10% of 1), while engine rows overlap stages across
// workers plus the caller draining the graph and only get a sanity
// band, (0, workers+2]. Hoisting executes strictly less work than
// per-rotation switching, so a hoisted speedup below 1 means the
// shared-ModUp path broke, at any machine speed.
func throughputCheck(rep *throughputReport) error {
	if !rep.BitExact {
		return errors.New("fresh report is not bit-exact with the serial pipeline")
	}
	for _, row := range rep.Results {
		if len(row.StageShares) == 0 {
			continue
		}
		sum := obs.SumShares(row.StageShares)
		if row.Dataflow == "serial" && (sum < 0.9 || sum > 1.1) {
			return fmt.Errorf("serial: stage shares sum to %.3f of wall time, want within 10%% of 1.0", sum)
		}
		if limit := float64(rep.Workers + 2); row.Dataflow != "serial" && (sum <= 0 || sum > limit) {
			return fmt.Errorf("%s: stage shares sum to %.3f of wall time, want in (0, %.0f] at %d workers",
				row.Dataflow, sum, limit, rep.Workers)
		}
	}
	if h := rep.Hoisted; h != nil {
		if !h.BitExact {
			return errors.New("hoisted outputs not bit-exact with per-rotation")
		}
		for _, row := range h.Results {
			if row.MeasuredSpeedup < 1 {
				return fmt.Errorf("hoisted %s: %.2fx slower than per-rotation", row.Dataflow, row.MeasuredSpeedup)
			}
		}
	}
	return nil
}

var serveGate = reportGate[serveReport]{
	empty: func(r *serveReport) bool { return r.Requests == 0 },
	rates: func(r *serveReport) []opsRate { return one(r.OpsPerSec) },
	check: serveCheck,
	// The baseline pins the compressed key form, the (halved) budget,
	// the tenant matrix and the observability sections: a bench run
	// without -keycomp, -tenants or -profile, or with the budget
	// loosened back up, must not pass.
	pins: func(base, fresh *serveReport) []string {
		var out []string
		if base.KeyComp && !fresh.KeyComp {
			out = append(out, "baseline caches compressed keys but the fresh run does not (bench run without -keycomp?)")
		}
		if base.KeyBudget > 0 && fresh.KeyBudget > base.KeyBudget {
			out = append(out, fmt.Sprintf("fresh key budget %d above baseline %d (bench run with a loosened budget?)",
				fresh.KeyBudget, base.KeyBudget))
		}
		if len(fresh.Tenants) < len(base.Tenants) {
			out = append(out, fmt.Sprintf("fresh report covers %d tenants, baseline %d (bench run with a smaller -tenants matrix?)",
				len(fresh.Tenants), len(base.Tenants)))
		}
		if len(base.StageShares) > 0 {
			if len(fresh.StageShares) == 0 {
				out = append(out, "baseline has stage shares but the fresh report does not (bench run without -profile?)")
			} else if sum := obs.SumShares(fresh.StageShares); sum <= 0 {
				out = append(out, fmt.Sprintf("stage shares sum to %.3f, want > 0", sum))
			}
		}
		if len(base.Phases) > 0 && len(fresh.Phases) == 0 {
			out = append(out, "baseline has request-lifecycle phases but the fresh report does not")
		}
		return out
	},
	summary: func(r *serveReport) string {
		return fmt.Sprintf("coalescing %.2fx, key hit rate %.0f%%, %d tenants, resident %d/%d key bytes, keycomp %v (%d expansions)",
			r.CoalescingFactor, 100*r.KeyHitRate, len(r.Tenants), r.KeyBytes, r.KeyBudget, r.KeyComp, r.KeyExpansions)
	},
}

var replayGate = reportGate[workloadReport]{
	empty: func(r *workloadReport) bool { return r.Served == 0 },
	rates: func(r *workloadReport) []opsRate { return one(r.OpsPerSec) },
	check: workloadCheck,
	// The baseline pins the schedule shape: a smaller, flatter or
	// shallower (dependency-free) schedule must not pass.
	pins: func(base, fresh *workloadReport) []string {
		var out []string
		b, f := base.Predicted, fresh.Predicted
		for _, c := range []struct {
			what        string
			fresh, base int
		}{
			{"switches", f.Switches, b.Switches},
			{"hoist groups", f.HoistGroups, b.HoistGroups},
			{"depth", f.Depth, b.Depth},
		} {
			if c.fresh < c.base {
				out = append(out, fmt.Sprintf("fresh schedule has %s %d, baseline %d (bench run with a smaller schedule?)",
					c.what, c.fresh, c.base))
			}
		}
		return out
	},
	summary: func(r *workloadReport) string {
		return fmt.Sprintf("%s: %d switches, %d/%d ModUps (predicted/measured), hoist coalescing %.2fx, depth %d",
			r.Schedule, r.Served, r.Predicted.ModUps, r.ModUps, r.HoistCoalescingFactor, r.Predicted.Depth)
	},
}

var clusterGate = reportGate[clusterReport]{
	empty: func(r *clusterReport) bool { return r.Served == 0 },
	rates: func(r *clusterReport) []opsRate { return one(r.OpsPerSec) },
	check: clusterCheck,
	// The baseline pins the fabric shape: fewer shards or tenants, no
	// mid-replay drain, or no shard profiles (clusterCheck already
	// checks a profile that is present) must not pass.
	pins: func(base, fresh *clusterReport) []string {
		var out []string
		if fresh.Shards < base.Shards {
			out = append(out, fmt.Sprintf("fresh report covers %d shards, baseline %d (bench run with fewer shards?)",
				fresh.Shards, base.Shards))
		}
		if fresh.Tenants < base.Tenants {
			out = append(out, fmt.Sprintf("fresh report covers %d tenants, baseline %d (bench run with fewer tenants?)",
				fresh.Tenants, base.Tenants))
		}
		if base.Drained >= 0 && fresh.Drained < 0 {
			out = append(out, "baseline drained a shard mid-replay but the fresh run did not (bench run without -kill?)")
		}
		if base.Profiled && !fresh.Profiled {
			out = append(out, "baseline shipped shard stage profiles but the fresh run did not (bench run without -profile?)")
		}
		return out
	},
	summary: func(r *clusterReport) string {
		return fmt.Sprintf("%s: %d shards x %d tenants, %d delivered, shard-sum exact %v, bit-exact %v, drained shard %d",
			r.Schedule, r.Shards, r.Tenants, r.Delivered, r.ShardSumExact, r.BitExact, r.Drained)
	},
}
