package main

import (
	"fmt"
	"runtime"
	"time"

	"ciflow/internal/bconv"
	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/ntt"
	"ciflow/internal/ring"
)

// Per-layer metrics that come from a workload's traffic rather than
// from the probes below. A workload that bypasses a layer reports its
// metrics as 0: no work reached the layer.
var (
	serveMetrics = []layerMetric{
		{"serve.enqueue_ms", "ms"}, {"serve.dispatch_ms", "ms"}, {"serve.keys_ms", "ms"},
		{"serve.hoist_ms", "ms"}, {"serve.replay_ms", "ms"}, {"serve.reply_ms", "ms"},
		{"serve.batch_size", "count"}, {"serve.coalescing_factor", "ratio"},
		{"serve.cache_hit_rate", "ratio"}, {"serve.evictions", "count"},
		{"serve.key_resident_mib", "MiB"}, {"serve.key_loads", "count"},
		{"serve.key_load_ms", "ms"}, {"serve.key_load_failures", "count"},
	}
	workloadMetrics = []layerMetric{{"workload.group_ms", "ms"}, {"workload.batches_per_replay", "count"}}
	clusterMetrics  = []layerMetric{
		{"cluster.group_rtt_ms", "ms"}, {"cluster.wire_ms", "ms"}, {"cluster.bytes_per_switch", "B"},
		{"cluster.shard_skew", "ratio"}, {"cluster.undelivered", "count"},
	}
)

type layerMetric struct{ name, unit string }

// bypassed reports every metric of the given layers as 0.
func bypassed(rep *report, layers ...[]layerMetric) {
	for _, l := range layers {
		for _, m := range l {
			rep.set(m.name, 0, m.unit, "layer bypassed by this workload")
		}
	}
}

// probeReps is how many times each probe repeats a call; probes report
// the median.
const probeReps = 15

// timeIt runs f reps times inside spans named name under parent and
// returns the median duration.
func timeIt(tr *tracer, parent int64, name string, reps int, f func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = tr.do(parent, 0, name, func(int64) { f() })
	}
	return median(ds)
}

// probeLayers calls each layer below serve directly on the fixture's
// shape (its ring, level, digit split and key) and adds the kernel,
// HKS, engine and codec metrics.
func probeLayers(rep *report, cctx *ckks.Context, f *switchFixture, tr *tracer) error {
	var err error
	tr.do(0, 0, "bench.probe", func(root int64) { err = probe(rep, cctx, f, tr, root) })
	return err
}

func probe(rep *report, cctx *ckks.Context, f *switchFixture, tr *tracer, root int64) error {
	r, sw, evk, e := cctx.R, f.sw, f.evk, f.e
	n := r.N
	d := f.in[0]
	qb, pb, db := sw.QBasis(), sw.PBasis(), sw.DBasis()
	sampler := ring.NewSampler(r, 7)

	// Kernels.
	row := append([]uint64(nil), d.Coeffs[0]...)
	tab := r.Tables[qb[0]]
	fwd := timeIt(tr, root, "ntt.Forward", 4*probeReps, func() { tab.Forward(row) })
	inv := timeIt(tr, root, "ntt.Inverse", 4*probeReps, func() { tab.Inverse(row) })
	bfly := float64(ntt.ButterflyOps(n))
	rep.set("ntt.forward_ns_per_butterfly", float64(fwd)/bfly, "ns", fmt.Sprintf("N=%d, %.0f butterflies per transform", n, bfly))
	rep.set("ntt.inverse_ns_per_butterfly", float64(inv)/bfly, "ns", fmt.Sprintf("N=%d", n))

	// BConv on the ModUp shapes (each digit to the rest of D) and on
	// the ModDown shape (P to Q, exact).
	var bconvSum time.Duration
	for j, digit := range sw.Digits() {
		var rest ring.Basis
		for _, t := range db {
			if !digit.Contains(t) {
				rest = append(rest, t)
			}
		}
		cv, err := bconv.New(r, digit, rest)
		if err != nil {
			return err
		}
		in, out := sampler.Uniform(digit), r.NewPoly(rest)
		t := timeIt(tr, root, "bconv.Convert", probeReps, func() { cv.Convert(in, out) })
		bconvSum += t
		if j == 0 {
			rep.set("bconv.convert_ns_per_coeff", float64(t)/float64(len(digit)*len(rest)*n), "ns",
				fmt.Sprintf("per source tower x destination tower x coefficient, %d->%d towers", len(digit), len(rest)))
		}
	}
	down, err := bconv.New(r, pb, qb)
	if err != nil {
		return err
	}
	pin, qout := sampler.Uniform(pb), r.NewPoly(qb)
	bconvSum += 2 * timeIt(tr, root, "bconv.ConvertExact", probeReps, func() { down.ConvertExact(pin, qout) })

	a, bb, acc := sampler.Uniform(db), sampler.Uniform(db), r.NewPoly(db)
	a.IsNTT, bb.IsNTT, acc.IsNTT = true, true, true
	mac := timeIt(tr, root, "ring.MulAddCoeffwise", probeReps, func() { r.MulAddCoeffwise(a, bb, acc) })
	macNs := float64(mac) / float64(len(db)*n)
	rep.set("ring.mac_ns_per_coeff", macNs, "ns", fmt.Sprintf("%d towers x %d coefficients", len(db), n))

	// HKS stages, serial.
	var ups []*ring.Poly
	var c0, c1 *ring.Poly
	dec := timeIt(tr, root, "hks.Decompose", probeReps, func() { sw.Decompose(d) })
	modup := timeIt(tr, root, "hks.ModUp", probeReps, func() { ups = sw.ModUp(d) })
	apply := timeIt(tr, root, "hks.ApplyEvk", probeReps, func() { c0, c1 = sw.ApplyEvk(ups, evk) })
	moddown := timeIt(tr, root, "hks.ModDown", probeReps, func() { sw.ModDown(c0); sw.ModDown(c1) })
	serial := timeIt(tr, root, "hks.KeySwitch", probeReps, func() { sw.KeySwitch(d, evk) })
	rep.set("hks.keyswitch_ms", ms(serial), "ms", "serial KeySwitch in the probe, the base of both sum ratios")
	rep.set("switch_ms.serial", ms(serial), "ms", fmt.Sprintf("probe, median of %d", probeReps))
	rep.set("hks.decompose_ms", ms(dec), "ms", "inside ModUp, not added to the stage sum")
	rep.set("hks.modup_ms", ms(modup), "ms", "")
	rep.set("hks.apply_ms", ms(apply), "ms", "")
	rep.set("hks.moddown_ms", ms(moddown), "ms", "both ModDowns of one switch")
	stageSum := modup + apply + moddown
	rep.set("hks.stage_sum_ms", ms(stageSum), "ms", "ModUp + ApplyEvk + 2 ModDown")
	rep.set("hks.stage_sum_ratio", float64(stageSum)/float64(serial), "ratio",
		fmt.Sprintf("stage sum %.3f ms / KeySwitch %.3f ms", ms(stageSum), ms(serial)))

	// Kernel calls in one serial switch: ModUp runs an inverse NTT on
	// each digit's towers and a forward NTT on every converted tower;
	// each ModDown an inverse on the P towers and a forward on the Q
	// towers; ApplyEvk two MACs per digit over D.
	var fwdTowers int
	for _, digit := range sw.Digits() {
		fwdTowers += len(db) - len(digit)
	}
	fwdTowers += 2 * len(qb)
	invTowers := len(qb) + 2*len(pb)
	macCoeffs := 2 * len(sw.Digits()) * len(db) * n
	kernelSum := time.Duration(fwdTowers)*fwd + time.Duration(invTowers)*inv + bconvSum +
		time.Duration(float64(macCoeffs)*macNs)
	rep.set("hks.kernel_sum_ms", ms(kernelSum), "ms",
		fmt.Sprintf("%d forward + %d inverse tower NTTs, %d BConvs, %d MAC coefficients", fwdTowers, invTowers, len(sw.Digits())+2, macCoeffs))
	rep.set("hks.kernel_sum_ratio", float64(kernelSum)/float64(serial), "ratio",
		fmt.Sprintf("kernel sum %.3f ms / KeySwitch %.3f ms", ms(kernelSum), ms(serial)))

	// Allocations per switch on each path.
	for k, p := range pathNames {
		var call func()
		if k == 0 {
			call = func() { sw.KeySwitch(d, evk) }
		} else {
			df, o0, o1 := parallelPaths[k-1], f.out0[k-1], f.out1[k-1]
			call = func() { sw.SwitchParallelInto(e, df, d, evk, o0, o1) }
		}
		allocs, bytes := allocsPer(probeReps, call)
		rep.set("hks.allocs_per_switch."+p, allocs, "count", "")
		rep.set("hks.alloc_bytes_per_switch."+p, bytes, "B", "")
	}

	// Engine: parallel paths against the serial switch, and the cost of
	// running a graph node that does nothing.
	for k, df := range parallelPaths {
		o0, o1 := f.out0[k], f.out1[k]
		t := timeIt(tr, root, "hks.SwitchParallelInto/"+pathNames[k+1], probeReps, func() {
			sw.SwitchParallelInto(e, df, d, evk, o0, o1)
		})
		if !o0.Equal(f.ref0[0]) || !o1.Equal(f.ref1[0]) {
			return fmt.Errorf("probe: %s switch differs from the serial reference", pathNames[k+1])
		}
		rep.set("switch_ms."+pathNames[k+1], ms(t), "ms", fmt.Sprintf("probe, median of %d", probeReps))
		rep.set("engine.speedup."+pathNames[k+1], float64(serial)/float64(t), "x",
			fmt.Sprintf("KeySwitch %.3f ms / %.3f ms", ms(serial), ms(t)))
	}
	const nodes = 2000
	g := engine.NewGraph()
	for i := 0; i < nodes; i++ {
		g.Node(func() {})
	}
	run := timeIt(tr, root, "engine.RunGraph", probeReps, func() { e.RunGraph(g) })
	rep.set("engine.node_overhead_us", float64(run)/float64(nodes)/1e3, "us", fmt.Sprintf("%d independent no-op nodes", nodes))

	// Hoisting on the serving shape: the shared half, the per-key
	// replay, the streamed replay of a compressed key, one digit's
	// seed expansion. Each output is checked against the reference.
	cevk, ok := evk.Compress()
	if !ok {
		return fmt.Errorf("probe: key has no seeds to compress")
	}
	hoist := timeIt(tr, root, "hks.HoistParallel", probeReps, func() { sw.HoistParallel(e, dataflow.MP, d).Release() })
	h := sw.HoistParallel(e, dataflow.MP, d)
	o0, o1 := f.out0[0], f.out1[0]
	replay := timeIt(tr, root, "hks.Hoisted.SwitchParallelInto", probeReps, func() { h.SwitchParallelInto(e, evk, o0, o1) })
	badHoist := !o0.Equal(f.ref0[0]) || !o1.Equal(f.ref1[0])
	streamed := timeIt(tr, root, "hks.Hoisted.SwitchStreamedInto", probeReps, func() { h.SwitchStreamedInto(cevk.StartExpand(r), o0, o1) })
	badHoist = badHoist || !o0.Equal(f.ref0[0]) || !o1.Equal(f.ref1[0])
	h.Release()
	if badHoist {
		return fmt.Errorf("probe: hoisted replay differs from the serial reference")
	}
	expand := timeIt(tr, root, "hks.CompressedEvk.ExpandDigit", probeReps, func() { cevk.ExpandDigit(r, 0) })
	rep.set("hks.hoist_ms", ms(hoist), "ms", "HoistParallel, MP")
	rep.set("hks.replay_ms", ms(replay), "ms", "Hoisted.SwitchParallelInto, dense key")
	rep.set("hks.replay_streamed_ms", ms(streamed), "ms", "Hoisted.SwitchStreamedInto, compressed key expanded while applied")
	rep.set("hks.expand_digit_ms", ms(expand), "ms", fmt.Sprintf("one of %d digits", cevk.Digits()))

	// Wire codecs: an 8-member group frame and one result frame.
	grp := &cluster.Group{BaseID: 1, Tenant: "t0", Level: sw.Level, Dataflow: dataflow.MP, Rots: []int{1, 2, 3, 4, 5, 6, 7, 8}, Input: d}
	var codecErr error
	group := timeIt(tr, root, "cluster.codec.group", probeReps, func() {
		p, err := cluster.EncodeGroup(r, grp)
		if err == nil {
			_, err = cluster.DecodeGroup(r, p)
		}
		codecErr = err
	})
	res := &cluster.WireResult{ReqID: 1, Code: cluster.ResultOK, C0: f.ref0[0], C1: f.ref1[0]}
	result := timeIt(tr, root, "cluster.codec.result", probeReps, func() {
		p, err := cluster.EncodeResult(r, res)
		if err == nil {
			_, err = cluster.DecodeResult(r, p)
		}
		if err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return fmt.Errorf("probe: codec: %w", codecErr)
	}
	rep.set("cluster.codec_ms.group", ms(group), "ms", "EncodeGroup + DecodeGroup, 8 members")
	rep.set("cluster.codec_ms.result", ms(result), "ms", "EncodeResult + DecodeResult")
	return nil
}

// allocsPer returns the heap allocations and bytes per call of f,
// after one warm-up call.
func allocsPer(reps int, f func()) (allocs, bytes float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(reps), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
}
