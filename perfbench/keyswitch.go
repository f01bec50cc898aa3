package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// The keyswitch workload: a closed loop with one caller and dense keys
// at dnum 3. One operation switches one input through the serial
// hks.Switcher.KeySwitch and through SwitchParallelInto under MP, DC
// and OC on one engine. Kernels, HKS stages and the engine do all the
// work; serve, workload and cluster are bypassed, so a serving-layer
// change should predict no change here.

const (
	keyswitchDnum   = 3
	keyswitchInputs = 4 // distinct inputs, each with a reference output
)

var errMismatch = errors.New("output differs from the reference")

// parallelPaths are the engine dataflows, in pathNames order after
// "serial".
var parallelPaths = []dataflow.Dataflow{dataflow.MP, dataflow.DC, dataflow.OC}

// switchFixture switches fixed inputs on the four paths and checks
// every output against a serial reference computed once in set-up.
type switchFixture struct {
	sw         *hks.Switcher
	evk        *hks.Evk
	e          *engine.Engine
	in         []*ring.Poly
	ref0, ref1 []*ring.Poly
	out0, out1 [3]*ring.Poly // MP, DC, OC outputs, reused
	keygen     time.Duration
}

// newSwitchFixture builds the fixture at the context's top level with
// kc's hoisting-form key for rotation 1.
func newSwitchFixture(cctx *ckks.Context, kc *ckks.KeyChain, e *engine.Engine, seed int64, inputs int) (*switchFixture, error) {
	sw, err := cctx.Switchers().Switcher(cctx.MaxLevel)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	evk, err := kc.HoistKey(1, cctx.MaxLevel)
	if err != nil {
		return nil, err
	}
	f := &switchFixture{sw: sw, evk: evk, e: e, keygen: time.Since(t0)}
	sampler := ring.NewSampler(cctx.R, seed)
	for i := 0; i < inputs; i++ {
		d := sampler.Uniform(sw.QBasis())
		d.IsNTT = true
		c0, c1 := sw.KeySwitch(d, evk)
		f.in = append(f.in, d)
		f.ref0 = append(f.ref0, c0)
		f.ref1 = append(f.ref1, c1)
	}
	for k := range parallelPaths {
		f.out0[k] = cctx.R.NewPoly(sw.QBasis())
		f.out1[k] = cctx.R.NewPoly(sw.QBasis())
	}
	return f, nil
}

// round switches input i on every path and returns each path's time
// (serial, MP, DC, OC) and whether all four outputs equal the
// reference. The comparisons sit between the timed calls.
func (f *switchFixture) round(i int, tr *tracer, parent, req int64) ([4]time.Duration, bool) {
	var times [4]time.Duration
	j := i % len(f.in)
	d := f.in[j]
	var c0, c1 *ring.Poly
	times[0] = tr.do(parent, req, "hks.KeySwitch", func(int64) { c0, c1 = f.sw.KeySwitch(d, f.evk) })
	ok := c0.Equal(f.ref0[j]) && c1.Equal(f.ref1[j])
	for k, df := range parallelPaths {
		times[k+1] = tr.do(parent, req, "hks.SwitchParallelInto/"+pathNames[k+1], func(int64) {
			f.sw.SwitchParallelInto(f.e, df, d, f.evk, f.out0[k], f.out1[k])
		})
		ok = ok && f.out0[k].Equal(f.ref0[j]) && f.out1[k].Equal(f.ref1[j])
	}
	return times, ok
}

// paths runs rounds rounds and returns each path's samples and the
// rounds whose outputs mismatched.
func (f *switchFixture) paths(rounds int) (map[string][]time.Duration, int) {
	out := map[string][]time.Duration{}
	bad := 0
	for i := 0; i < rounds; i++ {
		times, ok := f.round(i, nil, 0, 0)
		if !ok {
			bad++
		}
		for p, t := range times {
			out[pathNames[p]] = append(out[pathNames[p]], t)
		}
	}
	return out, bad
}

type keyswitchRig struct {
	cctx *ckks.Context
	e    *engine.Engine
	fix  *switchFixture
	inf  setupInfo
}

func setupKeyswitch(seed int64) (rig, error) {
	cctx, err := ckks.NewContext(1<<logN, numQ, qBits, numP, pBits, keyswitchDnum)
	if err != nil {
		return nil, err
	}
	e := engine.New(runtime.GOMAXPROCS(0))
	kc, _ := ckks.GenKeys(cctx, seed)
	fix, err := newSwitchFixture(cctx, kc, e, seed, keyswitchInputs)
	if err != nil {
		e.Close()
		return nil, err
	}
	r := &keyswitchRig{cctx: cctx, e: e, fix: fix, inf: setupInfo{keys: 1, keygen: fix.keygen}}
	// The untimed warm-up pass: every input once on every path.
	if _, bad := fix.paths(keyswitchInputs); bad > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %d of %d rounds differ from the serial reference", bad, keyswitchInputs)
	}
	return r, nil
}

func (r *keyswitchRig) run(d time.Duration, tr *tracer) (*phase, error) {
	paths := map[string][]time.Duration{}
	res := closedLoop(1, d, func(_, k int) (time.Duration, error) {
		req := int64(k + 1)
		var times [4]time.Duration
		var ok bool
		tr.do(0, req, "bench.op", func(id int64) { times, ok = r.fix.round(k, tr, id, req) })
		var sum time.Duration
		for p, t := range times {
			paths[pathNames[p]] = append(paths[pathNames[p]], t)
			sum += t
		}
		if !ok {
			return sum, errMismatch
		}
		return sum, nil
	})
	ph := toPhase(res, 4)
	ph.paths = paths
	// One caller: the phase's busy time is the sum of its operations,
	// which leaves the output comparisons out of the throughput.
	ph.elapsed = 0
	for _, l := range ph.lat {
		ph.elapsed += l
	}
	return ph, nil
}

// verify has nothing left to do: every operation compared its four
// outputs with the reference between its timed calls.
func (r *keyswitchRig) verify(ph *phase) (int, int, error) { return ph.attempted, 0, nil }

func (r *keyswitchRig) layers(rep *report, ph *phase, tr *tracer) error {
	if err := probeLayers(rep, r.cctx, r.fix, tr); err != nil {
		return err
	}
	bypassed(rep, serveMetrics, workloadMetrics, clusterMetrics)
	return nil
}

func (r *keyswitchRig) info() setupInfo { return r.inf }

func (r *keyswitchRig) close() { r.e.Close() }

// toPhase turns a generator's samples into a phase; switchesPerOp key
// switches complete with every successful operation.
func toPhase(res loadResult, switchesPerOp int) *phase {
	ph := &phase{inflight: res.inflight, elapsed: res.elapsed, attempted: len(res.errs)}
	for i, err := range res.errs {
		if err != nil {
			ph.failed++
			continue
		}
		ph.lat = append(ph.lat, res.lat[i])
		ph.late = append(ph.late, res.late[i])
		ph.switches += switchesPerOp
	}
	return ph
}
