package main

// The serve experiment is the load generator for internal/serve: it
// stands up the multi-tenant batching key-switch service — one
// ckks.KeyChain (keyspace) per tenant over a shared context, derived
// through serve.NewSeedKeySource (with -keycomp, serving
// seed-compressed key material), routed through one per-level
// switcher pool — and drives it with concurrent
// clients issuing overlapping rotation fan-outs across a (tenant,
// level) matrix: the request stream of diagonal-method linear-
// transform workloads, served instead of evaluated inline. The report
// is the serving counterpart of the throughput experiment: ops/sec and
// tail latency, plus the serving-specific reuse metrics — key cache
// hit rate, resident bytes vs the global budget, coalescing factor
// (requests per executed Decompose+ModUp) — each broken down per
// tenant, because the keyspace isolation invariants (no cross-tenant
// coalescing, no tenant starved) are what the perf gate pins.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

// serveConfig is the parsed flag set of the serve experiment.
type serveConfig struct {
	dfName    string
	clients   int
	rps       int // per-client operations/sec; 0 = unpaced
	rotations int // fan-out width per operation
	ops       int // operations per client
	logN      int
	towers    int
	dnum      int
	workers   int
	rotPool   int   // distinct rotation amounts shared per keyspace
	tenants   int   // distinct keyspaces
	levels    int   // distinct ciphertext levels, topmost first
	keyBudget int64 // global key-cache byte budget; 0 = serve default
	keyComp   bool  // cache seed-compressed keys, expand per digit at use
	maxBatch  int
	window    time.Duration
}

// serveTenantReport is one tenant's slice of the serve report.
type serveTenantReport struct {
	Tenant        string  `json:"tenant"`
	Served        uint64  `json:"served"`
	P99Ms         float64 `json:"p99_ms"`
	ModUps        uint64  `json:"mod_ups"`
	KeyHitRate    float64 `json:"key_hit_rate"`
	KeyMisses     uint64  `json:"key_misses"`
	KeyEvictions  uint64  `json:"key_evictions"`
	KeyBytes      int64   `json:"key_bytes"`
	KeyExpansions uint64  `json:"key_expansions"`
}

// serveReport is the JSON artifact of the serve experiment
// (BENCH_serve.json in the bench/perfgate flow).
type serveReport struct {
	N           int     `json:"n"`
	Towers      int     `json:"towers"`
	Dnum        int     `json:"dnum"`
	Workers     int     `json:"workers"`
	NumCPU      int     `json:"num_cpu"`
	Dataflow    string  `json:"dataflow"`
	Clients     int     `json:"clients"`
	RPS         int     `json:"rps"`
	Rotations   int     `json:"rotations"`
	OpsPerCli   int     `json:"ops_per_client"`
	RotPool     int     `json:"rot_pool"`
	TenantCount int     `json:"tenants"`
	Levels      int     `json:"levels"`
	KeyBudget   int64   `json:"key_budget_bytes"`
	DurationSec float64 `json:"duration_sec"`

	Requests  uint64  `json:"requests"`    // key switches served
	OpsPerSec float64 `json:"ops_per_sec"` // served key switches per second
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`

	CoalescingFactor float64 `json:"coalescing_factor"`
	ModUps           uint64  `json:"mod_ups"`
	Coalesced        uint64  `json:"coalesced"`
	Batches          uint64  `json:"batches"`
	Groups           uint64  `json:"groups"`

	KeyHits      uint64 `json:"key_hits"`
	KeyMisses    uint64 `json:"key_misses"`
	KeyEvictions uint64 `json:"key_evictions"`
	// KeyBytes is the resident evaluation-key footprint at the end of
	// the run; the perf gate asserts it never exceeds KeyBudget.
	KeyBytes   int64   `json:"key_resident_bytes"`
	KeyHitRate float64 `json:"key_hit_rate"`
	// KeyComp records whether the cache held seed-compressed keys;
	// KeyDenseBytes is then the what-if dense footprint of the same
	// resident set, and KeyExpansions counts streamed per-digit
	// expansions (one per served request — hits expand too).
	KeyComp       bool   `json:"keycomp"`
	KeyDenseBytes int64  `json:"key_dense_bytes"`
	KeyExpansions uint64 `json:"key_expansions"`

	Tenants []serveTenantReport `json:"tenant_stats"`

	// Phases is the request-lifecycle breakdown (enqueue → dispatch →
	// keys → hoist → replay → reply) accumulated by the service;
	// always on, so it is present in every report.
	Phases []serve.PhaseStats `json:"phases,omitempty"`

	// StageShares breaks the run's wall time down by HKS stage
	// (-profile only). The service runs groups concurrently, so the
	// shares sum toward the effective parallelism, not 1.0.
	StageShares []obs.StageShare `json:"stage_shares,omitempty"`

	BitExact bool `json:"bit_exact"`
}

// serveRun executes the load generation and returns the report; split
// from the printing so tests can exercise it directly. A single
// -dataflow pins every request; "all" assigns MP/DC/OC to clients
// round-robin, exercising the service's per-dataflow grouping. Clients
// are spread round-robin over the (tenant, level) matrix: client c
// serves tenant c mod T at the (c div T mod L)-th level from the top.
func serveRun(cfg serveConfig) (*serveReport, error) {
	if cfg.clients < 1 {
		return nil, fmt.Errorf("need at least 1 client, got %d", cfg.clients)
	}
	if cfg.ops < 1 {
		return nil, fmt.Errorf("need at least 1 operation per client, got %d", cfg.ops)
	}
	if cfg.rotations < 1 {
		return nil, fmt.Errorf("need at least 1 rotation, got %d", cfg.rotations)
	}
	if cfg.rps < 0 {
		return nil, fmt.Errorf("rps %d must be >= 0", cfg.rps)
	}
	if cfg.logN < 4 || cfg.logN > 16 {
		return nil, fmt.Errorf("logn %d out of range [4,16]", cfg.logN)
	}
	if cfg.tenants < 1 {
		return nil, fmt.Errorf("need at least 1 tenant, got %d", cfg.tenants)
	}
	// Levels stop above 0 so every request can carry its level
	// explicitly (serve routes a zero Level to the default).
	if cfg.levels < 1 || cfg.levels >= cfg.towers {
		return nil, fmt.Errorf("levels %d out of range [1,%d] for %d towers", cfg.levels, cfg.towers-1, cfg.towers)
	}
	if cfg.keyBudget < 0 {
		return nil, fmt.Errorf("keybudget %d must be >= 0", cfg.keyBudget)
	}
	// Every (tenant, level) cell needs at least one client; otherwise
	// unexercised tenants would be absent from the report and the
	// per-tenant -check invariants would pass vacuously.
	if cfg.clients < cfg.tenants*cfg.levels {
		return nil, fmt.Errorf("%d clients cannot cover the %dx%d tenant/level matrix",
			cfg.clients, cfg.tenants, cfg.levels)
	}
	if cfg.rotPool == 0 {
		cfg.rotPool = cfg.rotations
	}
	if cfg.rotPool < cfg.rotations {
		return nil, fmt.Errorf("rotpool %d smaller than the fan-out %d", cfg.rotPool, cfg.rotations)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	dfs, err := parseThroughputDataflows(cfg.dfName)
	if err != nil {
		return nil, err
	}

	n := 1 << cfg.logN
	cctx, err := ckks.NewContext(n, cfg.towers, 40, 3, 41, cfg.dnum)
	if err != nil {
		return nil, err
	}

	// One keyspace (secret + key chain) per tenant over the shared
	// context, built through the same seed-derived source the cluster
	// shards use (keys are pure functions of context + TenantSeed);
	// all of them route through the context's one per-level switcher
	// pool (switchers hold no secret material). With -keycomp the
	// source hands the cache seed-compressed material, so the service
	// expands the a-halves per digit, streamed under the hoist phase.
	names := tenantNames(cfg.tenants)
	src, err := serve.NewSeedKeySource(cctx, names, cfg.keyComp)
	if err != nil {
		return nil, err
	}
	levelAt := func(i int) int { return cctx.MaxLevel - i%cfg.levels }

	e := engine.New(cfg.workers)
	defer e.Close()
	svc, err := serve.New(cctx.Switchers(), src, serve.Config{
		Engine:       e,
		KeyBudget:    cfg.keyBudget,
		MaxBatch:     cfg.maxBatch,
		Window:       cfg.window,
		DefaultLevel: cctx.MaxLevel,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	rep := &serveReport{
		N: n, Towers: cfg.towers, Dnum: cfg.dnum,
		Workers: cfg.workers, NumCPU: runtime.NumCPU(),
		Dataflow: cfg.dfName, Clients: cfg.clients, RPS: cfg.rps,
		Rotations: cfg.rotations, OpsPerCli: cfg.ops,
		RotPool: cfg.rotPool, TenantCount: cfg.tenants, Levels: cfg.levels,
	}

	// Rotation amounts 1..rotPool, shared by every client of one
	// keyspace so their key working sets overlap: that overlap is what
	// the per-tenant cache hit rate measures. Operation op issues
	// amounts rot(op), rot(op+1), ... wrapping around the pool.
	rot := func(i int) int { return 1 + i%cfg.rotPool }

	// Pre-sample one seed input per client off the clock (the sampler
	// is not safe for concurrent use). A client's operations form a
	// dependent chain: every subsequent operation derives its input
	// from the previous operation's first switched output, so a chain
	// never re-submits a bit-identical input — re-cycling a fixed
	// input would let the coalescer merge logically sequential
	// requests and inflate the coalescing stats with sharing no real
	// dependent workload could exhibit.
	s := ring.NewSampler(cctx.R, int64(cfg.tenants)+1)
	basisAt := func(level int) ring.Basis { return cctx.R.QBasis(level) }
	seeds := make([]*ring.Poly, cfg.clients)
	for c := range seeds {
		seeds[c] = s.Uniform(basisAt(levelAt(c / cfg.tenants)))
		seeds[c].IsNTT = true
	}

	// Timed run: each client issues ops operations; one operation is a
	// fan-out of `rotations` concurrent requests on one input,
	// optionally paced at -rps.
	var clientErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if clientErr == nil {
			clientErr = err
		}
		errMu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			df := dfs[c%len(dfs)]
			tenant := names[c%cfg.tenants]
			level := levelAt(c / cfg.tenants)
			var tick *time.Ticker
			if cfg.rps > 0 {
				tick = time.NewTicker(time.Second / time.Duration(cfg.rps))
				defer tick.Stop()
			}
			chans := make([]<-chan serve.Result, cfg.rotations)
			in := seeds[c]
			for op := 0; op < cfg.ops; op++ {
				if tick != nil {
					<-tick.C
				}
				for i := 0; i < cfg.rotations; i++ {
					ch, err := svc.Submit(context.Background(), serve.Request{
						Input: in, Rot: rot(op + i), Dataflow: df,
						Tenant: tenant, Level: level,
					})
					if err != nil {
						fail(err)
						return
					}
					chans[i] = ch
				}
				var next *ring.Poly
				for i, ch := range chans {
					res := <-ch
					if res.Err != nil {
						fail(res.Err)
						return
					}
					if i == 0 {
						next = res.C1
					}
				}
				// The chain mutates its ciphertext between steps: the
				// next operation consumes this one's first output
				// (fresh storage, fresh values), so sequential steps
				// can never coalesce.
				in = next
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if clientErr != nil {
		return nil, clientErr
	}

	// Snapshot right here, before the bit-exactness verification below
	// fans more switches through the service: the profile and phase
	// books must cover exactly the timed run.
	st := svc.Stats()
	rep.Phases = st.Phases
	rep.StageShares = obs.Shares(st.Profile, elapsed.Seconds())
	rep.DurationSec = elapsed.Seconds()
	rep.Requests = st.Served
	rep.OpsPerSec = float64(st.Served) / elapsed.Seconds()
	rep.P50Ms = float64(st.P50) / float64(time.Millisecond)
	rep.P99Ms = float64(st.P99) / float64(time.Millisecond)
	rep.CoalescingFactor = st.CoalescingFactor
	rep.ModUps = st.ModUps
	rep.Coalesced = st.Coalesced
	rep.Batches = st.Batches
	rep.Groups = st.Groups
	rep.KeyHits = st.Keys.Hits
	rep.KeyMisses = st.Keys.Misses
	rep.KeyEvictions = st.Keys.Evictions
	rep.KeyBytes = st.Keys.Bytes
	rep.KeyBudget = st.Keys.BudgetBytes // effective (default applied)
	rep.KeyHitRate = st.Keys.HitRate
	rep.KeyComp = cfg.keyComp
	rep.KeyDenseBytes = st.Keys.DenseBytes
	rep.KeyExpansions = st.KeyExpansions
	for _, ts := range st.Tenants {
		rep.Tenants = append(rep.Tenants, serveTenantReport{
			Tenant:        ts.Tenant,
			Served:        ts.Served,
			P99Ms:         float64(ts.P99) / float64(time.Millisecond),
			ModUps:        ts.ModUps,
			KeyHitRate:    ts.Keys.HitRate,
			KeyMisses:     ts.Keys.Misses,
			KeyEvictions:  ts.Keys.Evictions,
			KeyBytes:      ts.Keys.Bytes,
			KeyExpansions: ts.KeyExpansions,
		})
	}

	// Bit-exactness: replay one fan-out per (tenant, level) pair in
	// use through the (already warm) service and compare against
	// direct hks.SwitchHoisted with the same memoized keys of that
	// keyspace. Off the clock by construction.
	rep.BitExact = true
	pairs := cfg.tenants * cfg.levels // clients >= pairs, checked above
	for c := 0; c < pairs; c++ {
		tenant := names[c%cfg.tenants]
		level := levelAt(c / cfg.tenants)
		kc, err := src.Chain(tenant)
		if err != nil {
			return nil, err
		}
		sw, err := kc.Switcher(level)
		if err != nil {
			return nil, err
		}
		verifyIn := seeds[c]
		evks := make([]*hks.Evk, cfg.rotations)
		for i := range evks {
			if evks[i], err = kc.HoistKey(rot(i), level); err != nil {
				return nil, err
			}
		}
		want0, want1 := sw.SwitchHoisted(verifyIn, evks)
		vchans := make([]<-chan serve.Result, cfg.rotations)
		for i := 0; i < cfg.rotations; i++ {
			ch, err := svc.Submit(context.Background(), serve.Request{
				Input: verifyIn, Rot: rot(i), Dataflow: dfs[0],
				Tenant: tenant, Level: level,
			})
			if err != nil {
				return nil, err
			}
			vchans[i] = ch
		}
		for i, ch := range vchans {
			res := <-ch
			if res.Err != nil {
				return nil, res.Err
			}
			if !res.C0.Equal(want0[i]) || !res.C1.Equal(want1[i]) {
				rep.BitExact = false
				return rep, fmt.Errorf("tenant %s level %d rotation %d differs from direct SwitchHoisted",
					tenant, level, i)
			}
		}
	}
	return rep, nil
}

// serveCheck enforces the acceptance bar behind -check: the service
// must actually be reusing state — per keyspace, without leaking
// across keyspaces — not just passing requests through.
func serveCheck(rep *serveReport) error {
	if !rep.BitExact {
		return fmt.Errorf("serve check: results not bit-exact with direct SwitchHoisted")
	}
	if rep.CoalescingFactor <= 1 {
		return fmt.Errorf("serve check: coalescing factor %.2f, want > 1 (no shared ModUps)", rep.CoalescingFactor)
	}
	if rep.KeyHitRate <= 0.5 {
		return fmt.Errorf("serve check: key cache hit rate %.2f, want > 0.5", rep.KeyHitRate)
	}
	if rep.KeyBytes > rep.KeyBudget {
		return fmt.Errorf("serve check: resident key bytes %d exceed the %d budget", rep.KeyBytes, rep.KeyBudget)
	}
	if rep.KeyComp {
		if rep.KeyExpansions == 0 {
			return fmt.Errorf("serve check: -keycomp set but no streamed expansions counted")
		}
		if rep.KeyDenseBytes <= rep.KeyBytes {
			return fmt.Errorf("serve check: dense-equivalent footprint %d not above compressed resident %d",
				rep.KeyDenseBytes, rep.KeyBytes)
		}
	} else if rep.KeyExpansions != 0 {
		return fmt.Errorf("serve check: dense run counted %d streamed expansions", rep.KeyExpansions)
	}
	var tenantModUps uint64
	for _, ts := range rep.Tenants {
		if ts.KeyHitRate <= 0.5 {
			return fmt.Errorf("serve check: tenant %s hit rate %.2f, want > 0.5", ts.Tenant, ts.KeyHitRate)
		}
		if ts.Served == 0 {
			return fmt.Errorf("serve check: tenant %s served nothing (starved)", ts.Tenant)
		}
		tenantModUps += ts.ModUps
	}
	if tenantModUps != rep.ModUps {
		return fmt.Errorf("serve check: per-tenant ModUps sum %d != global %d (cross-tenant coalescing)",
			tenantModUps, rep.ModUps)
	}
	return nil
}

func serveCmd(cfg serveConfig, jsonPath string, check bool, profile bool, tracePath, pprofDir string) error {
	finishObs := setupObs(profile, tracePath)
	stopPprof, err := startPprof(pprofDir)
	if err != nil {
		return err
	}
	rep, err := serveRun(cfg)
	if perr := stopPprof(); err == nil {
		err = perr
	}
	if oerr := finishObs(); err == nil {
		err = oerr
	}
	if err != nil {
		return err
	}

	fmt.Printf("Serve: N=2^%d, %d towers, dnum=%d, %d workers (%d CPUs)\n",
		cfg.logN, rep.Towers, rep.Dnum, rep.Workers, rep.NumCPU)
	fmt.Printf("%d clients x %d ops x %d rotations (%s, pool %d) over %d tenants x %d levels\n",
		rep.Clients, rep.OpsPerCli, rep.Rotations, rep.Dataflow, rep.RotPool,
		rep.TenantCount, rep.Levels)
	fmt.Printf("%-22s %12.2f\n", "served switches/sec", rep.OpsPerSec)
	fmt.Printf("%-22s %9.3f ms\n", "p50 latency", rep.P50Ms)
	fmt.Printf("%-22s %9.3f ms\n", "p99 latency", rep.P99Ms)
	fmt.Printf("%-22s %11.2fx  (%d requests / %d ModUps)\n",
		"coalescing factor", rep.CoalescingFactor, rep.Requests, rep.ModUps)
	fmt.Printf("%-22s %11.1f%%  (%d hits, %d misses, %d evictions)\n",
		"key cache hit rate", 100*rep.KeyHitRate, rep.KeyHits, rep.KeyMisses, rep.KeyEvictions)
	fmt.Printf("%-22s %8.1f MiB  of %.1f MiB budget\n",
		"resident key bytes", float64(rep.KeyBytes)/(1<<20), float64(rep.KeyBudget)/(1<<20))
	if rep.KeyComp {
		fmt.Printf("%-22s %8.1f MiB  dense-equivalent (%d streamed expansions)\n",
			"compressed keys", float64(rep.KeyDenseBytes)/(1<<20), rep.KeyExpansions)
	}
	fmt.Printf("%-22s %12v\n", "bit-exact", rep.BitExact)
	if len(rep.Phases) > 0 {
		fmt.Printf("%-10s %10s %12s %10s\n", "phase", "count", "total ms", "mean µs")
		for _, ps := range rep.Phases {
			totalMs := float64(ps.TotalNs) / float64(time.Millisecond)
			meanUs := float64(ps.TotalNs) / float64(ps.Count) / float64(time.Microsecond)
			fmt.Printf("%-10s %10d %12.3f %10.1f\n", ps.Phase, ps.Count, totalMs, meanUs)
		}
	}
	if len(rep.StageShares) > 0 {
		fmt.Println("\nStage profile (all dataflows, per-worker time):")
		printStageShares(rep.StageShares)
	}
	if len(rep.Tenants) > 1 {
		fmt.Printf("%-8s %10s %10s %8s %10s %10s %12s\n",
			"tenant", "served", "p99 ms", "mod_ups", "hit rate", "evictions", "key MiB")
		for _, ts := range rep.Tenants {
			fmt.Printf("%-8s %10d %10.3f %8d %9.1f%% %10d %12.1f\n",
				ts.Tenant, ts.Served, ts.P99Ms, ts.ModUps,
				100*ts.KeyHitRate, ts.KeyEvictions, float64(ts.KeyBytes)/(1<<20))
		}
	}

	return finishReport(rep, jsonPath, check, "serve", serveCheck)
}
