// Command perfbench is the repository benchmark. One process runs one
// workload against the ciflow library, drives it from outside through
// the public functions of its packages, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload keyswitch --seed 1 --seconds 12 --trace 0
//
// README.md in this directory records why each workload exists and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Shape shared by every workload: N = 2^13 with 6 Q towers of 40 bits
// and 3 P towers of 41 bits, the geometry of the BENCH_*.json
// baselines.
const (
	logN  = 13
	numQ  = 6
	qBits = 40
	numP  = 3
	pBits = 41
)

// spec is one --workload: its setup, and how many times a
// --trace 0 run builds the system from scratch (setup_s is the
// median). A set-up of under a second is repeated more, so its median
// is as steady as the longer ones'.
type spec struct {
	setup  func(seed int64) (rig, error)
	setups int
}

var workloads = map[string]spec{
	"keyswitch":       {setupKeyswitch, 9},
	"rotate-open":     {setupRotate, 3},
	"bootstrap-chain": {setupBootstrap, 3},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: keyswitch, rotate-open or bootstrap-chain")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer run")
	out := fs.String("out", ".bench_build", "directory the span file is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (keyswitch|rotate-open|bootstrap-chain), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// GOMAXPROCS and every engine are capped at the CPUs the process
	// may use.
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := &bench{name: *name, seed: *seed, dur: time.Duration(*seconds) * time.Second, w: w}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = b.traced(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)))
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.print(stdout)
	if !rep.out.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their output check\n",
			*name, rep.out.Failed, rep.out.Attempted)
		return 1
	}
	return 0
}

// rig is one workload's system under test, built from scratch by the
// workload's setup (context, keys, cache warm-up and one untimed
// warm-up pass).
type rig interface {
	// run drives the workload for d. A non-nil tracer records spans
	// around every call the benchmark makes into a layer.
	run(d time.Duration, tr *tracer) (*phase, error)
	// verify runs the output checks kept outside the timed interval
	// and returns the operations checked and those that failed.
	verify(ph *phase) (checked, failed int, err error)
	// layers adds the per-layer metrics of the traced phase ph.
	layers(rep *report, ph *phase, tr *tracer) error
	// info reports what setup did.
	info() setupInfo
	close()
}

// setupInfo is what one setup did besides taking time.
type setupInfo struct {
	coldMisses uint64        // key-cache misses before the timed phase
	keys       int           // evaluation keys generated
	keygen     time.Duration // time spent generating them
}

// phase is one timed phase: a sample per completed operation.
type phase struct {
	lat       []time.Duration // due (or start) time to completion
	late      []time.Duration // send time minus due time
	inflight  int             // most operations in flight at once
	switches  int             // key switches completed
	attempted int
	failed    int
	elapsed   time.Duration
	gcShare   float64 // GC CPU over all CPU in the phase
	// paths are per-path switch times (serial, mp, dc, oc) when the
	// workload's operations time every path.
	paths  map[string][]time.Duration
	detail any // the workload's own record of the phase
}

// bench runs one workload.
type bench struct {
	name string
	seed int64
	dur  time.Duration
	w    spec
}

// endToEnd is the untraced run: set up w.setups times, measure, check.
func (b *bench) endToEnd() (*report, error) {
	var setups []time.Duration
	var r rig
	for i := 0; i < b.w.setups; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = b.w.setup(b.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer r.close()

	ph, err := measure(r, b.dur, nil)
	if err != nil {
		return nil, err
	}
	// Two collections: the first moves sync.Pool contents to the
	// victim cache, the second frees them, so what is left is the keys,
	// caches and memos the system holds, not whichever scratch states a
	// pool happened to keep.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heap := float64(mem.HeapAlloc) / (1 << 20)

	checked, bad, err := r.verify(ph)
	if err != nil {
		return nil, err
	}
	info := r.info()
	rep := newReport()
	rep.addE2E(ph)
	rep.set("setup_s", median(setups).Seconds(), "s",
		fmt.Sprintf("median of %d set-ups, %d cold key-cache misses, %d keys generated in %.3f s",
			len(setups), info.coldMisses, info.keys, info.keygen.Seconds()))
	rep.set("heap_live_mib", heap, "MiB", "live heap after forced GCs at the end of the timed phase")
	// The per-path switch times are per-layer metrics; where the
	// operations time every path they are printed here too, as text.
	for _, p := range pathNames {
		if ds := ph.paths[p]; len(ds) > 0 {
			rep.notef("switch_ms.%-8s %12.6f ms     n=%d", p, ms(median(ds)), len(ds))
		}
	}
	rep.finish(ph.attempted, ph.failed+bad, checked)
	return rep, nil
}

var pathNames = []string{"serial", "mp", "dc", "oc"}

// traced is the layer-by-layer run: one set-up, then the timed phase
// split untraced-traced-untraced (a quarter, a half, a quarter) so
// drift over the run does not bias the overhead ratio, then the layer
// probes. It writes the spans to spanPath.
func (b *bench) traced(spanPath string) (*report, error) {
	r, err := b.w.setup(b.seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	quarter := max(b.dur/4, time.Second)
	before, err := measure(r, quarter, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ph, err := measure(r, 2*quarter, tr)
	if err != nil {
		return nil, err
	}
	after, err := measure(r, quarter, nil)
	if err != nil {
		return nil, err
	}
	plain := append(append([]time.Duration(nil), before.lat...), after.lat...)
	rep := newReport()
	var attempted, failed, checked int
	for _, p := range []*phase{before, ph, after} {
		c, k, err := r.verify(p)
		if err != nil {
			return nil, err
		}
		attempted += p.attempted
		failed += p.failed + k
		checked += c
	}
	if err := r.layers(rep, ph, tr); err != nil {
		return nil, err
	}
	// The probe in layers timed each path; a workload whose operations
	// time every path reports its traced operations instead.
	for _, p := range pathNames {
		if ds := ph.paths[p]; len(ds) > 0 {
			rep.set("switch_ms."+p, ms(median(ds)), "ms", fmt.Sprintf("median of the traced phase, n=%d", len(ds)))
		}
	}
	info := r.info()
	rep.set("ckks.keygen_ms", ms(info.keygen)/float64(max(info.keys, 1)), "ms",
		fmt.Sprintf("per key, %d keys generated in set-up", info.keys))
	rep.set("loadgen.late_ms_p99", ms(percentile(ph.late, 0.99)), "ms", fmt.Sprintf("n=%d", len(ph.late)))
	rep.set("loadgen.inflight_max", float64(ph.inflight), "count", "")
	rep.set("runtime.gc_cpu_share", ph.gcShare, "ratio", "GC CPU seconds over all CPU seconds in the traced phase")
	rep.set("trace.overhead", ms(median(ph.lat))/ms(median(plain)), "ratio",
		fmt.Sprintf("traced latency p50 %.3f ms (n=%d) over untraced %.3f ms (n=%d)",
			ms(median(ph.lat)), len(ph.lat), ms(median(plain)), len(plain)))

	self := layerSelf(tr.spans())
	if err := tr.write(spanPath, b.name, b.seed, self); err != nil {
		return nil, err
	}
	rep.notef("spans: %d written to %s", len(tr.spans()), spanPath)
	for _, l := range sortedKeys(self) {
		rep.notef("self time %-10s %12.3f ms", l, ms(self[l]))
	}
	rep.finish(attempted, failed, checked)
	return rep, nil
}

// measure runs one timed phase and adds the share of CPU time the
// garbage collector took during it.
func measure(r rig, d time.Duration, tr *tracer) (*phase, error) {
	gc0, all0 := cpuSeconds()
	ph, err := r.run(d, tr)
	if err != nil {
		return nil, err
	}
	gc1, all1 := cpuSeconds()
	if all1 > all0 {
		ph.gcShare = (gc1 - gc0) / (all1 - all0)
	}
	return ph, nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// report collects the metrics and the notes (sample counts, bases)
// printed next to them.
type report struct {
	out   output
	order []string
	notes map[string]string
	extra []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report {
	return &report{out: output{Metrics: map[string]metric{}}, notes: map[string]string{}}
}

// set records a metric; a value that is not finite (a ratio over an
// empty phase) is recorded as 0 so the result line stays valid JSON.
func (r *report) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, dup := r.out.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

func (r *report) notef(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// addE2E adds the end-to-end metrics every workload reports.
func (r *report) addE2E(ph *phase) {
	n := len(ph.lat)
	r.set("ops_per_s", float64(ph.switches)/ph.elapsed.Seconds(), "1/s",
		fmt.Sprintf("%d key switches in %.3f s", ph.switches, ph.elapsed.Seconds()))
	r.set("latency_p50_ms", ms(median(ph.lat)), "ms", fmt.Sprintf("n=%d", n))
	tail, q := tailLatency(ph.lat)
	r.set("latency_tail_ms", ms(tail), "ms", fmt.Sprintf("p%.2f, n=%d, 10 samples above it", 100*q, n))
}

// finish fills the result counters. Attempted counts the workload's
// operations; a failed one erred, was refused, or produced a wrong
// output. checked is how many operations had their outputs checked.
func (r *report) finish(attempted, failed, checked int) {
	r.out.Attempted, r.out.Failed = attempted, failed
	if attempted < 1 {
		r.out.Attempted, r.out.Failed = 1, 1
	}
	r.out.Correct = r.out.Failed == 0
	r.notef("fail_ratio %.6f (%d failed of %d attempted operations, %d of them with checked outputs)",
		float64(r.out.Failed)/float64(r.out.Attempted), r.out.Failed, r.out.Attempted, checked)
}

// print writes the text report, then the result line last.
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m := r.out.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.6f %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	for _, e := range r.extra {
		fmt.Fprintln(w, e)
	}
	line, _ := json.Marshal(r.out) // maps of float64 and strings always marshal
	fmt.Fprintln(w, string(line))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of durations (mean of the middle two for an even count); 0
// for none.
func median(ds []time.Duration) time.Duration {
	s := sorted(ds)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 0:
		return (s[n/2-1] + s[n/2]) / 2
	default:
		return s[n/2]
	}
}

// percentile returns the q-quantile by nearest rank; 0 for none.
func percentile(ds []time.Duration, q float64) time.Duration {
	s := sorted(ds)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tailLatency returns the highest-ranked sample that still has 10
// samples above it, and its percentile rank. With 10 samples or fewer
// it returns the largest.
func tailLatency(ds []time.Duration) (time.Duration, float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := sorted(ds)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], float64(i+1) / float64(len(s))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerOf is a span's layer: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
