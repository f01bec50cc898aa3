package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/cluster"
	"ciflow/internal/dataflow"
	"ciflow/internal/engine"
	"ciflow/internal/serve"
	"ciflow/internal/workload"
)

// The bootstrap-chain workload: a closed loop of 2 callers, one per
// tenant, each replaying the BTS2-shaped workload.Bootstrap schedule
// back to back with workload.Replay. Traffic goes through an
// in-process fabric of 2 cluster.Shards (1 engine worker each) on
// loopback, routed by a cluster.Router with 2 replicas; each caller
// sees the fabric through a TenantView. Every key is warm, so the key
// cache only hits. One operation is one bootstrap, timed as its replay
// makespan. The load is bound by dependency latency, and it uses the
// cache and the micro-batcher the opposite way to rotate-open.

const (
	// btsDnum is BTS2's digit count; the 3 P towers cover its digits
	// at 6 Q towers.
	btsDnum     = 2
	btsTenants  = 2
	btsShards   = 2
	btsReplicas = 2
	// btsWarmRounds bounds the warm-up replays; with 2 replicas a key
	// is on both shards after two rounds, and the last round must miss
	// nothing.
	btsWarmRounds = 4
)

type bootstrapRig struct {
	cctx    *ckks.Context
	sched   *workload.Schedule
	engines []*engine.Engine
	shards  []*cluster.Shard
	serving sync.WaitGroup
	rt      *cluster.Router
	bytes   atomic.Int64 // bytes through the shards' connections
	tenants []string
	chains  map[string]*ckks.KeyChain // router-side verifier keys
	views   []*timedView
	fixE    *engine.Engine
	fix     *switchFixture
	seed    int64
	phases  int
	inf     setupInfo
}

// bootstrapPhase is what a phase leaves for verify and layers.
type bootstrapPhase struct {
	seeds         [btsTenants][]int64 // replay seeds per caller, completed ones
	replays       []*workload.ReplayResult
	before, after []serve.Stats
	bytes         int64
	submitted     uint64
	delivered     uint64
	rtts          []time.Duration
}

// timedView is the benchmark's Server wrapper around a TenantView. It
// counts the requests it hands the router and, when tracing, times
// each SubmitGroup until its last result arrives. workload.Replay
// submits every group, singletons too, through SubmitGroup.
type timedView struct {
	*cluster.TenantView
	submitted atomic.Uint64

	// Set by the view's one caller between replays; SubmitGroup runs
	// on that caller's goroutine.
	tr          *tracer
	parent, req int64 // the caller's current replay span
	mu          sync.Mutex
	rtts        []time.Duration
}

func (v *timedView) SubmitGroup(ctx context.Context, reqs []serve.Request) ([]<-chan serve.Result, error) {
	v.submitted.Add(uint64(len(reqs)))
	if v.tr == nil {
		return v.TenantView.SubmitGroup(ctx, reqs)
	}
	parent, req := v.parent, v.req
	start := time.Now()
	rcs, err := v.TenantView.SubmitGroup(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]<-chan serve.Result, len(rcs))
	fwd := make([]chan serve.Result, len(rcs))
	for i := range fwd {
		fwd[i] = make(chan serve.Result, 1)
		out[i] = fwd[i]
	}
	go func() {
		res := make([]serve.Result, len(rcs))
		for i, rc := range rcs {
			res[i] = <-rc
		}
		end := time.Now()
		v.tr.record(v.tr.id(), parent, req, "cluster.SubmitGroup", start, end)
		v.mu.Lock()
		v.rtts = append(v.rtts, end.Sub(start))
		v.mu.Unlock()
		for i := range fwd {
			fwd[i] <- res[i]
		}
	}()
	return out, nil
}

// countingListener counts every byte through the connections it
// accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

func setupBootstrap(seed int64) (rig, error) {
	r := &bootstrapRig{seed: seed, chains: map[string]*ckks.KeyChain{}}
	if err := r.build(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *bootstrapRig) build() error {
	var err error
	if r.cctx, err = ckks.NewContext(1<<logN, numQ, qBits, numP, pBits, btsDnum); err != nil {
		return err
	}
	if r.sched, err = workload.Bootstrap(workload.BootstrapParams{LogSlots: logN - 1, Top: r.cctx.MaxLevel}); err != nil {
		return err
	}
	for i := 0; i < btsTenants; i++ {
		r.tenants = append(r.tenants, fmt.Sprintf("t%d", i))
	}
	scfg := workload.ReplayServiceConfig(r.sched)
	var addrs []string
	for i := 0; i < btsShards; i++ {
		e := engine.New(1)
		r.engines = append(r.engines, e)
		cfg := scfg
		cfg.Engine = e
		sh, err := cluster.NewShard(r.cctx, r.tenants, cfg)
		if err != nil {
			return err
		}
		r.shards = append(r.shards, sh)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs = append(addrs, ln.Addr().String())
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			sh.Serve(countingListener{Listener: ln, n: &r.bytes}) // returns when the shard closes
		}()
	}
	if r.rt, err = cluster.NewRouter(r.cctx.R, addrs, cluster.RouterConfig{Replicas: btsReplicas}); err != nil {
		return err
	}
	// The verifier derives each tenant's keys from its seed, bit for
	// bit the keys every shard derives; generating them is the
	// set-up's key generation.
	t0 := time.Now()
	keys := make([]int, len(r.tenants))
	errs := make([]error, len(r.tenants))
	var wg sync.WaitGroup
	for i, tn := range r.tenants {
		kc, _ := ckks.GenKeys(r.cctx, cluster.KeySeed(tn))
		r.chains[tn] = kc
		r.views = append(r.views, &timedView{TenantView: &cluster.TenantView{Router: r.rt, Tenant: tn}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := map[[2]int]bool{}
			for _, n := range r.sched.Nodes {
				if seen[[2]int{n.Rot, n.Level}] {
					continue
				}
				seen[[2]int{n.Rot, n.Level}] = true
				if _, errs[i] = kc.HoistKey(n.Rot, n.Level); errs[i] != nil {
					return
				}
				keys[i]++
			}
		}()
	}
	wg.Wait()
	for i := range r.tenants {
		if errs[i] != nil {
			return errs[i]
		}
		r.inf.keys += keys[i]
	}
	r.inf.keygen = time.Since(t0)

	// Cache warm-up: replay on every caller until a round misses
	// nothing; that last round is the untimed warm-up pass.
	for round := 0; ; round++ {
		before := cluster.AggregateStats(r.rt.AllStats()).Keys.Misses
		ph, err := r.run(0, nil)
		if err == nil && ph.failed > 0 {
			err = fmt.Errorf("%d of %d replays failed", ph.failed, ph.attempted)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		after := cluster.AggregateStats(r.rt.AllStats()).Keys.Misses
		r.inf.coldMisses = after
		if after == before {
			break
		}
		if round+1 == btsWarmRounds {
			return fmt.Errorf("warm-up: key cache still missing after %d rounds", btsWarmRounds)
		}
	}
	r.fixE = engine.New(runtime.GOMAXPROCS(0))
	r.fix, err = newSwitchFixture(r.cctx, r.chains[r.tenants[0]], r.fixE, r.seed, 1)
	return err
}

// replaySeed derives one replay's input seed.
func (r *bootstrapRig) replaySeed(caller, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d", r.seed, r.phases, caller, k)
	return int64(h.Sum64() &^ (1 << 63))
}

// replay runs one bootstrap for caller through its view.
func (r *bootstrapRig) replay(ctx context.Context, caller int, seed int64, check bool) (*workload.ReplayResult, error) {
	tn := r.tenants[caller]
	return workload.Replay(ctx, r.views[caller], r.cctx.Switchers(), serve.KeyChains{tn: r.chains[tn]},
		r.cctx.R, r.sched, workload.ReplayConfig{Tenant: tn, Dataflow: dataflow.MP, Seed: seed, Check: check})
}

// run replays on every caller until d has passed; d = 0 replays once
// per caller.
func (r *bootstrapRig) run(d time.Duration, tr *tracer) (*phase, error) {
	r.phases++
	bp := &bootstrapPhase{before: r.rt.AllStats(), bytes: -r.bytes.Load(), delivered: r.rt.Delivered()}
	for _, v := range r.views {
		v.tr = tr
		v.rtts = nil
		bp.submitted -= v.submitted.Load()
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	var mu sync.Mutex
	res := closedLoop(btsTenants, d, func(c, k int) (time.Duration, error) {
		v := r.views[c]
		seed := r.replaySeed(c, k)
		v.req = int64(c)<<32 | int64(k+1)
		v.parent = tr.id()
		start := time.Now()
		rr, err := r.replay(ctx, c, seed, false)
		tr.record(v.parent, 0, v.req, "workload.Replay", start, time.Now())
		if err != nil {
			return 0, err
		}
		if !rr.CountsExact || rr.DepViolations != 0 {
			return rr.Wall, fmt.Errorf("replay %d/%d: counts exact %v, %d dependency violations: %v",
				c, k, rr.CountsExact, rr.DepViolations, rr.Mismatches)
		}
		mu.Lock()
		bp.seeds[c] = append(bp.seeds[c], seed)
		bp.replays = append(bp.replays, rr)
		mu.Unlock()
		return rr.Wall, nil
	})
	bp.after = r.rt.AllStats()
	bp.bytes += r.bytes.Load()
	bp.delivered = r.rt.Delivered() - bp.delivered
	for _, v := range r.views {
		bp.submitted += v.submitted.Load()
		bp.rtts = append(bp.rtts, v.rtts...)
		v.tr = nil
	}
	ph := toPhase(res, len(r.sched.Nodes))
	ph.detail = bp
	return ph, nil
}

// verify replays a seeded choice of each caller's timed replays again
// with the serial reference check on.
func (r *bootstrapRig) verify(ph *phase) (int, int, error) {
	bp := ph.detail.(*bootstrapPhase)
	rng := rand.New(rand.NewSource(r.seed + int64(r.phases)))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	checked, bad := 0, 0
	for c := range r.tenants {
		if len(bp.seeds[c]) == 0 {
			continue
		}
		seed := bp.seeds[c][rng.Intn(len(bp.seeds[c]))]
		rr, err := r.replay(ctx, c, seed, true)
		checked++
		if err != nil || !rr.BitExact || !rr.CountsExact || rr.DepViolations != 0 {
			bad++
		}
	}
	return checked, bad, nil
}

func (r *bootstrapRig) layers(rep *report, ph *phase, tr *tracer) error {
	bp := ph.detail.(*bootstrapPhase)
	before, after := cluster.AggregateStats(bp.before), cluster.AggregateStats(bp.after)
	serveLayer(rep, before, after)
	misses := after.Keys.Misses - before.Keys.Misses
	rep.set("serve.key_loads", float64(misses), "count", "shard key-cache misses; each loads one key")
	rep.set("serve.key_load_ms", 0, "ms", "no loads: every key is warm")
	rep.set("serve.key_load_failures", float64(after.Failed-before.Failed), "count", "failed requests on the shards")

	groups := len(r.sched.Groups())
	var wall time.Duration
	var batches uint64
	for _, rr := range bp.replays {
		wall += rr.Wall
		batches += rr.Batches
	}
	nrep := max(len(bp.replays), 1)
	rep.set("workload.group_ms", ms(wall)/float64(nrep*groups), "ms",
		fmt.Sprintf("replay wall over %d groups, %d replays", groups, len(bp.replays)))
	rep.set("workload.batches_per_replay", float64(batches)/float64(nrep), "count", "")

	var rtt time.Duration
	for _, d := range bp.rtts {
		rtt += d
	}
	meanRTT := ms(rtt) / float64(max(len(bp.rtts), 1))
	rep.set("cluster.group_rtt_ms", meanRTT, "ms", fmt.Sprintf("mean of %d SubmitGroup round trips", len(bp.rtts)))
	rep.set("cluster.wire_ms", meanRTT-shardMsPerGroup(before, after), "ms",
		"group round trip minus the shards' mean service time per group")
	served := after.Served - before.Served
	rep.set("cluster.bytes_per_switch", float64(bp.bytes)/float64(max(served, 1)), "B", fmt.Sprintf("%d bytes, %d switches", bp.bytes, served))
	var most, total uint64
	for i := range bp.after {
		n := bp.after[i].Served - bp.before[i].Served
		most = max(most, n)
		total += n
	}
	skew := 0.0
	if total > 0 {
		skew = float64(most) * float64(len(bp.after)) / float64(total)
	}
	rep.set("cluster.shard_skew", skew, "ratio", "busiest shard's switches over the mean")
	rep.set("cluster.undelivered", float64(bp.submitted)-float64(bp.delivered), "count",
		fmt.Sprintf("%d submitted, %d delivered", bp.submitted, bp.delivered))
	return probeLayers(rep, r.cctx, r.fix, tr)
}

// shardMsPerGroup estimates the shards' service time per group: the
// per-request waits (enqueue, dispatch, reply) plus the per-group work
// (keys, hoist, replay) between two aggregate snapshots.
func shardMsPerGroup(before, after serve.Stats) float64 {
	ns := map[string]float64{}
	for _, p := range after.Phases {
		ns[p.Phase] += float64(p.TotalNs)
	}
	for _, p := range before.Phases {
		ns[p.Phase] -= float64(p.TotalNs)
	}
	reqs := float64(max(after.Served-before.Served, 1))
	groups := float64(max(after.Groups-before.Groups, 1))
	return ((ns["enqueue"]+ns["dispatch"]+ns["reply"])/reqs + (ns["keys"]+ns["hoist"]+ns["replay"])/groups) / 1e6
}

func (r *bootstrapRig) info() setupInfo { return r.inf }

func (r *bootstrapRig) close() {
	if r.rt != nil {
		r.rt.Close()
	}
	for _, sh := range r.shards {
		sh.Close()
	}
	r.serving.Wait()
	for _, e := range r.engines {
		e.Close()
	}
	if r.fixE != nil {
		r.fixE.Close()
	}
}
