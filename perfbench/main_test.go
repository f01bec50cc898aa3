package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeRig completes every operation and fails bad of them in verify.
type fakeRig struct{ bad int }

func (f *fakeRig) run(d time.Duration, _ *tracer) (*phase, error) {
	return &phase{lat: []time.Duration{time.Millisecond, 2 * time.Millisecond}, late: []time.Duration{0, 0},
		switches: 2, attempted: 2, elapsed: d}, nil
}
func (f *fakeRig) verify(ph *phase) (int, int, error)    { return ph.attempted, f.bad, nil }
func (f *fakeRig) layers(*report, *phase, *tracer) error { return nil }
func (f *fakeRig) info() setupInfo                       { return setupInfo{} }
func (f *fakeRig) close()                                {}

func runFake(t *testing.T, bad int) (int, output, string) {
	t.Helper()
	workloads["fake"] = spec{func(int64) (rig, error) { return &fakeRig{bad: bad}, nil }, 3}
	defer delete(workloads, "fake")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fake", "--seconds", "1"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return code, out, stdout.String()
}

func TestResultLine(t *testing.T) {
	code, out, text := runFake(t, 0)
	if code != 0 || !out.Correct || out.Attempted != 2 || out.Failed != 0 {
		t.Fatalf("exit %d, result %+v", code, out)
	}
	names := []string{"ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "heap_live_mib"}
	for _, name := range names {
		if _, ok := out.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
		if lineOf(text, name) == "" {
			t.Errorf("metric %s not printed by name", name)
		}
	}
	if len(out.Metrics) != len(names) {
		t.Errorf("result has %d metrics, want exactly the %d end-to-end ones: %v", len(out.Metrics), len(names), out.Metrics)
	}
}

func TestMismatchFailsTheRun(t *testing.T) {
	code, out, _ := runFake(t, 1)
	if code == 0 || out.Correct || out.Failed != 1 {
		t.Fatalf("a mismatched output gave exit %d, result %+v", code, out)
	}
}

func TestBadFlagsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "keyswitch", "--trace", "2"},
		{"--workload", "keyswitch", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestTailLatency(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i))
	}
	v, q := tailLatency(ds)
	if v != 90 || q != 0.90 {
		t.Errorf("tail of 1..100 = %v at %v, want 90 at p90 (10 samples above)", v, q)
	}
	if median(ds) != 50 || percentile(ds, 0.99) != 99 {
		t.Errorf("median %v, p99 %v", median(ds), percentile(ds, 0.99))
	}
}
