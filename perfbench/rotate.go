package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// The rotate-open workload: an open loop of seeded Poisson arrivals at
// one fixed rate into one serve.Service. One operation is a hoisted
// fan-out of 8 rotations of one ciphertext, timed from its due time to
// its last result. Traffic spans 2 tenants x 2 levels with a pool of
// 16 rotations per keyspace and seed-compressed keys; the key budget
// is below the 64-key working set, so the steady state evicts and
// reloads. The work is queueing, micro-batching, coalescing, the key
// cache's eviction path and streamed expansion; workload and cluster
// are bypassed.

const (
	rotDnum    = 3
	rotTenants = 2
	rotLevels  = 2
	rotPool    = 16
	rotFanout  = 8
	rotBudget  = 64 << 20
	// rotRate is the offered load in fan-outs per second. One fan-out
	// (a hoist and 8 replays, each spread over both CPUs) keeps a
	// 2-CPU host busy for 80-115 ms, so 3/s loads it to about 0.3.
	// The speed of a shared host drifts by a third over tens of
	// seconds and queueing amplifies the drift: at 5/s (a load of up
	// to 0.6) five runs spread 0.25 in the median latency and 0.30 in
	// the tail.
	rotRate = 3.0
	// rotChecked is how many fan-outs per phase are checked against a
	// direct hks.SwitchHoisted.
	rotChecked = 6
	// rotWarm is the fan-outs of the untimed warm-up pass.
	rotWarm = 8
)

// countingSource is the benchmark's KeySource wrapper: it counts and
// times every load the key cache makes.
type countingSource struct {
	src      serve.KeySource
	loads    atomic.Uint64
	failures atomic.Uint64
	loadNs   atomic.Int64

	mu      sync.Mutex
	seen    map[serve.KeyID]bool
	firstNs time.Duration // loads of keys not loaded before: key generation
}

func (c *countingSource) Key(id serve.KeyID) (hks.KeyMaterial, error) {
	t0 := time.Now()
	m, err := c.src.Key(id)
	d := time.Since(t0)
	c.loads.Add(1)
	c.loadNs.Add(int64(d))
	if err != nil {
		c.failures.Add(1)
		return m, err
	}
	c.mu.Lock()
	if !c.seen[id] {
		c.seen[id] = true
		c.firstNs += d
	}
	c.mu.Unlock()
	return m, err
}

type rotateRig struct {
	cctx   *ckks.Context
	e      *engine.Engine
	src    *serve.SeedKeySource
	keys   *countingSource
	svc    *serve.Service
	fix    *switchFixture
	seed   int64
	phases int
	inf    setupInfo
	tenant []string
}

// fanout is one operation: 8 rotations of one input in one keyspace.
type fanout struct {
	tenant string
	level  int
	rots   []int
	in     *ring.Poly
	check  bool
	c0, c1 []*ring.Poly // kept for checked fan-outs only
}

// rotatePhase is what a phase leaves for verify and layers.
type rotatePhase struct {
	ops           []*fanout
	before, after serve.Stats
	loads         [2]uint64
	loadNs        [2]int64
	failures      [2]uint64
}

func setupRotate(seed int64) (rig, error) {
	cctx, err := ckks.NewContext(1<<logN, numQ, qBits, numP, pBits, rotDnum)
	if err != nil {
		return nil, err
	}
	r := &rotateRig{cctx: cctx, e: engine.New(runtime.GOMAXPROCS(0)), seed: seed}
	for i := 0; i < rotTenants; i++ {
		r.tenant = append(r.tenant, fmt.Sprintf("t%d", i))
	}
	if r.src, err = serve.NewSeedKeySource(cctx, r.tenant, true); err != nil {
		r.close()
		return nil, err
	}
	r.keys = &countingSource{src: r.src, seen: map[serve.KeyID]bool{}}
	r.svc, err = serve.New(cctx.Switchers(), r.keys, serve.Config{
		Engine: r.e, KeyBudget: rotBudget, DefaultLevel: cctx.MaxLevel,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	// Cache warm-up: every key of every keyspace once.
	sampler := ring.NewSampler(cctx.R, seed^0x5eed)
	for ks := 0; ks < rotTenants*rotLevels; ks++ {
		for half := 0; half < rotPool/rotFanout; half++ {
			f := r.newFanout(ks, nil, sampler)
			for i := range f.rots {
				f.rots[i] = 1 + half*rotFanout + i
			}
			if err := r.serveFanout(context.Background(), f, nil, 0, 0); err != nil {
				r.close()
				return nil, fmt.Errorf("cache warm-up: %w", err)
			}
		}
	}
	// One untimed warm-up pass of the open loop.
	warm := rotWarm / rotRate * float64(time.Second)
	ph, err := r.run(time.Duration(warm), nil)
	if err == nil && ph.failed > 0 {
		err = fmt.Errorf("%d of %d fan-outs failed", ph.failed, ph.attempted)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	kc, err := r.src.Chain(r.tenant[0])
	if err != nil {
		r.close()
		return nil, err
	}
	if r.fix, err = newSwitchFixture(cctx, kc, r.e, seed, 1); err != nil {
		r.close()
		return nil, err
	}
	r.keys.mu.Lock()
	r.inf = setupInfo{coldMisses: r.svc.Stats().Keys.Misses, keys: len(r.keys.seen), keygen: r.keys.firstNs}
	r.keys.mu.Unlock()
	return r, nil
}

// newFanout draws one fan-out in keyspace ks (tenant ks mod 2, level
// top - ks/2) with a fresh input; a nil rng leaves rots zero.
func (r *rotateRig) newFanout(ks int, rng *rand.Rand, sampler *ring.Sampler) *fanout {
	level := r.cctx.MaxLevel - ks/rotTenants
	f := &fanout{tenant: r.tenant[ks%rotTenants], level: level, rots: make([]int, rotFanout)}
	if rng != nil {
		for i, p := range rng.Perm(rotPool)[:rotFanout] {
			f.rots[i] = p + 1
		}
	}
	f.in = sampler.Uniform(r.cctx.R.QBasis(level))
	f.in.IsNTT = true
	return f
}

// serveFanout submits the fan-out's rotations on its one input and
// waits for every result.
func (r *rotateRig) serveFanout(ctx context.Context, f *fanout, tr *tracer, parent, req int64) error {
	chans := make([]<-chan serve.Result, len(f.rots))
	starts := make([]time.Time, len(f.rots))
	for i, rot := range f.rots {
		starts[i] = time.Now()
		ch, err := r.svc.Submit(ctx, serve.Request{
			Input: f.in, Rot: rot, Dataflow: dataflow.MP, Tenant: f.tenant, Level: f.level,
		})
		if err != nil {
			return err
		}
		chans[i] = ch
	}
	if f.check {
		f.c0, f.c1 = make([]*ring.Poly, len(chans)), make([]*ring.Poly, len(chans))
	}
	var firstErr error
	for i, ch := range chans {
		var res serve.Result
		select {
		case res = <-ch:
		case <-ctx.Done():
			res.Err = ctx.Err()
		}
		tr.record(tr.id(), parent, req, "serve.request", starts[i], time.Now())
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
		if f.check {
			f.c0[i], f.c1[i] = res.C0, res.C1
		}
	}
	return firstErr
}

func (r *rotateRig) run(d time.Duration, tr *tracer) (*phase, error) {
	r.phases++
	pseed := r.seed*1000 + int64(r.phases)
	due := poissonSchedule(pseed, rotRate, d)
	rng := rand.New(rand.NewSource(pseed))
	sampler := ring.NewSampler(r.cctx.R, pseed)
	rp := &rotatePhase{ops: make([]*fanout, len(due))}
	for i := range rp.ops {
		rp.ops[i] = r.newFanout(rng.Intn(rotTenants*rotLevels), rng, sampler)
	}
	for _, i := range rng.Perm(len(due))[:min(rotChecked, len(due))] {
		rp.ops[i].check = true
	}
	rp.before = r.svc.Stats()
	rp.loads[0], rp.loadNs[0], rp.failures[0] = r.keys.loads.Load(), r.keys.loadNs.Load(), r.keys.failures.Load()

	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	res := openLoop(due, func(i int, at time.Time) error {
		f := rp.ops[i]
		req := int64(i + 1)
		id := tr.id()
		tr.record(tr.id(), id, req, "loadgen.late", at, time.Now())
		err := r.serveFanout(ctx, f, tr, id, req)
		tr.record(id, 0, req, "loadgen.fanout", at, time.Now())
		if !f.check {
			f.in = nil // drop the input so the live heap holds only the service's state
		}
		return err
	})
	rp.after = r.svc.Stats()
	rp.loads[1], rp.loadNs[1], rp.failures[1] = r.keys.loads.Load(), r.keys.loadNs.Load(), r.keys.failures.Load()
	ph := toPhase(res, rotFanout)
	ph.detail = rp
	return ph, nil
}

// verify checks the sampled fan-outs against a direct
// hks.SwitchHoisted with the tenant's dense keys.
func (r *rotateRig) verify(ph *phase) (int, int, error) {
	rp := ph.detail.(*rotatePhase)
	checked, bad := 0, 0
	for _, f := range rp.ops {
		if !f.check || f.c0 == nil {
			continue
		}
		kc, err := r.src.Chain(f.tenant)
		if err != nil {
			return 0, 0, err
		}
		sw, err := r.cctx.Switchers().Switcher(f.level)
		if err != nil {
			return 0, 0, err
		}
		evks := make([]*hks.Evk, len(f.rots))
		for i, rot := range f.rots {
			if evks[i], err = kc.HoistKey(rot, f.level); err != nil {
				return 0, 0, err
			}
		}
		c0s, c1s := sw.SwitchHoisted(f.in, evks)
		checked++
		for i := range c0s {
			if f.c0[i] == nil || !c0s[i].Equal(f.c0[i]) || !c1s[i].Equal(f.c1[i]) {
				bad++
				break
			}
		}
		f.in, f.c0, f.c1 = nil, nil, nil
	}
	return checked, bad, nil
}

func (r *rotateRig) layers(rep *report, ph *phase, tr *tracer) error {
	rp := ph.detail.(*rotatePhase)
	serveLayer(rep, rp.before, rp.after)
	loads := rp.loads[1] - rp.loads[0]
	rep.set("serve.key_loads", float64(loads), "count", "KeySource loads in the traced phase")
	rep.set("serve.key_load_ms", ms(time.Duration(rp.loadNs[1]-rp.loadNs[0]))/float64(max(loads, 1)), "ms", "mean per load")
	rep.set("serve.key_load_failures", float64(rp.failures[1]-rp.failures[0]), "count", "")
	bypassed(rep, workloadMetrics, clusterMetrics)
	return probeLayers(rep, r.cctx, r.fix, tr)
}

func (r *rotateRig) info() setupInfo { return r.inf }

func (r *rotateRig) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	r.e.Close()
}

// serveLayer adds the serve metrics read from two Stats snapshots:
// lifecycle phases as the mean per counted unit, batching, coalescing
// and key-cache behaviour between them.
func serveLayer(rep *report, before, after serve.Stats) {
	prev := map[string]serve.PhaseStats{}
	for _, p := range before.Phases {
		prev[p.Phase] = p
	}
	cur := map[string]serve.PhaseStats{}
	for _, p := range after.Phases {
		cur[p.Phase] = p
	}
	for _, name := range []string{"enqueue", "dispatch", "keys", "hoist", "replay", "reply"} {
		n := cur[name].Count - prev[name].Count
		ns := cur[name].TotalNs - prev[name].TotalNs
		rep.set("serve."+name+"_ms", float64(ns)/1e6/float64(max(n, 1)), "ms", fmt.Sprintf("mean over %d units", n))
	}
	served := after.Served - before.Served
	batches := after.Batches - before.Batches
	modUps := after.ModUps - before.ModUps
	hits := after.Keys.Hits - before.Keys.Hits
	misses := after.Keys.Misses - before.Keys.Misses
	rep.set("serve.batch_size", float64(served)/float64(max(batches, 1)), "count", fmt.Sprintf("%d requests in %d batches", served, batches))
	rep.set("serve.coalescing_factor", float64(served)/float64(max(modUps, 1)), "ratio", fmt.Sprintf("%d requests over %d ModUps", served, modUps))
	rep.set("serve.cache_hit_rate", float64(hits)/float64(max(hits+misses, 1)), "ratio", fmt.Sprintf("%d hits, %d misses", hits, misses))
	rep.set("serve.evictions", float64(after.Keys.Evictions-before.Keys.Evictions), "count", "")
	rep.set("serve.key_resident_mib", float64(after.Keys.Bytes)/(1<<20), "MiB",
		fmt.Sprintf("budget %.0f MiB", float64(after.Keys.BudgetBytes)/(1<<20)))
}
