package main

import (
	"fmt"
	"runtime"
	"time"

	"loongserve/internal/baselines"
	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// benchWorkload is one fixed-shape workload; a run measures several
// inputs of it, each drawn from its own seed. prepare does everything
// before the timed entry call (the set-up time); the returned run makes
// the call.
type benchWorkload struct {
	name string
	// size is the input size: sessions for the session workloads,
	// requests for esp-longctx.
	size int
	// shards is the fleet runner's Shards setting (0 = legacy single-heap
	// runner, or no fleet at all).
	shards int
	// census generates a seed's input once, outside any timing, and
	// returns its request count and generation time.
	census  func(w *benchWorkload, seed int64) (requests int, gen time.Duration)
	prepare func(w *benchWorkload, seed int64, tr *tracer) (runFunc, error)
}

// runFunc makes a prepared workload's timed entry call. The outcome is
// derived afterwards by summarize, outside the timing.
type runFunc func() (summarize func() *outcome, err error)

// outcome is what one entry call produced.
type outcome struct {
	completed  int
	digest     uint64
	violations int // audit violations (bigfleet-open only)
	goodput    float64
	slo        float64
	hitRatio   float64
	makespan   time.Duration
	simEvents  uint64

	// Fleet-only facts for the traced run's per-layer metrics.
	fleet                   bool
	evicted                 int
	hitTokens, prefixTokens int64
	coldSpilled, coldFetch  int
	migrations              int
}

// Workload shape constants, per input. Changing any of them changes the
// benchmark.
const (
	// bigfleet-open: the -exp bigfleet shape, about 10k requests.
	bigFleetSessions = 4000
	bigFleetRate     = 8.0
	bigFleetLoong    = 8
	bigFleetSmall    = 56

	// esp-longctx: Mixed Poisson arrivals at about 90% of the single
	// 8-GPU replica's measured saturation (~0.17 req/s). Above saturation
	// the engine's requeue path grows superlinearly, which measures the
	// overload pathology rather than the scheduler.
	espRequests = 3000
	espRate     = 0.15

	// agent-closed: closed-loop branching sessions, about 45k requests.
	agentSessions = 5000
	agentReplicas = 8
	// agentCacheBlocks sizes each replica's radix cache far below the
	// working set, so completions evict and spill to the cold tier.
	agentCacheBlocks = 24
)

var (
	lwm  = model.LWM1MText()
	a800 = cluster.A800()
)

func loongKind() *fleet.ReplicaKind {
	return fleet.NewKind("loong", fleet.Spec{
		NewEngine:  func() serving.Engine { return core.New(2, core.Options{}) },
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(lwm, a800, 1, 8, 2) },
	})
}

func contBatchKind() *fleet.ReplicaKind {
	return fleet.NewKind("contbatch", fleet.Spec{
		NewEngine:  func() serving.Engine { return baselines.NewVLLM(1) },
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(lwm, a800, 1, 1, 1) },
	})
}

func vllmSpec() fleet.Spec {
	return fleet.Spec{
		NewEngine:  func() serving.Engine { return baselines.NewVLLM(8) },
		NewCluster: func() (*cluster.Cluster, error) { return cluster.New(lwm, a800, 1, 8, 8) },
	}
}

func bigFleetShape(sessions int) workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sessions
	cfg.SessionRate = bigFleetRate
	cfg.MinTurns, cfg.MaxTurns = 2, 3
	cfg.ThinkMean = 6
	cfg.PromptGroups = 16
	cfg.UserTokens, cfg.ReplyTokens = 200, 220
	cfg.LongFrac = 0.05
	cfg.LongDocTokens = 30_000
	cfg.LongDocMax = 60_000
	return cfg
}

func agentShape(sessions int) workload.SessionConfig {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = sessions
	cfg.ClosedLoop = true
	cfg.SessionRate = 2
	cfg.BranchFactor, cfg.BranchTurns = 4, 2
	cfg.PromptGroups = 32
	cfg.MinTurns, cfg.MaxTurns = 6, 12
	cfg.UserTokens, cfg.ReplyTokens = 120, 24
	return cfg
}

// workloads returns the benchmark's workloads at full size, in the order
// BENCHMARK.json lists them.
func workloads() []*benchWorkload {
	return []*benchWorkload{
		{name: "bigfleet-open", size: bigFleetSessions, shards: runtime.NumCPU(),
			census: bigFleetCensus, prepare: bigFleetPrepare},
		{name: "esp-longctx", size: espRequests,
			census: espCensus, prepare: espPrepare},
		{name: "agent-closed", size: agentSessions,
			census: agentCensus, prepare: agentPrepare},
	}
}

func findWorkload(name string) (*benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// bigFleetCensus drains an identical lazy stream: the request count, and
// the generation work the timed run does inline.
func bigFleetCensus(w *benchWorkload, seed int64) (int, time.Duration) {
	t0 := time.Now()
	st := workload.StreamSessions(bigFleetShape(w.size), seed)
	n := 0
	for fam := st.Next(); len(fam) > 0; fam = st.Next() {
		n += workload.NumRequests(fam)
	}
	return n, time.Since(t0)
}

func bigFleetPrepare(w *benchWorkload, seed int64, tr *tracer) (runFunc, error) {
	loong, small := loongKind(), contBatchKind()
	var policy fleet.Policy = fleet.NewCapabilityAffinity()
	sink := newAuditSink()
	cfg := fleet.Config{
		Groups:        []fleet.ReplicaGroup{{Kind: loong, Count: bigFleetLoong}, {Kind: small, Count: bigFleetSmall}},
		SLOKind:       loong,
		Cache:         fleet.CacheRadix,
		StreamMetrics: true,
		Shards:        w.shards,
		FuseDecode:    true,
		Obs:           sink,
	}
	if tr != nil {
		tr.wrapKind(loong)
		tr.wrapKind(small)
		policy = tr.wrapPolicy(policy)
		cfg.Obs = tr.wrapSink(sink)
	}
	cfg.Policy = policy
	for _, k := range []*fleet.ReplicaKind{loong, small} {
		if err := k.Resolve(); err != nil {
			return nil, err
		}
	}
	stream := workload.StreamSessions(bigFleetShape(w.size), seed)
	return func() (func() *outcome, error) {
		res, err := fleet.RunSessionStream(stream, cfg)
		return func() *outcome {
			o := fleetOutcome(res)
			o.digest = withStream(o.digest, sink.dig)
			o.violations = len(sink.aud.Finalize())
			return o
		}, err
	}, nil
}

func espTrace(w *benchWorkload, seed int64) []workload.TimedRequest {
	return workload.PoissonTrace(workload.Mixed(), espRate, w.size, seed)
}

func espCensus(w *benchWorkload, seed int64) (int, time.Duration) {
	t0 := time.Now()
	n := len(espTrace(w, seed))
	return n, time.Since(t0)
}

func espPrepare(w *benchWorkload, seed int64, tr *tracer) (runFunc, error) {
	trace := espTrace(w, seed)
	c, err := cluster.New(lwm, a800, 1, 8, 2)
	if err != nil {
		return nil, err
	}
	cm := costmodel.New(lwm, a800)
	var eng serving.Engine = core.New(2, core.Options{})
	if tr != nil {
		eng = tr.wrapEngine(eng)
		// No fleet attaches a sink here; attach one so the traced run
		// counts the engine's elastic events.
		eng.(serving.Traceable).AttachObsSink(discardSink{}, 0)
	}
	return func() (func() *outcome, error) {
		recs, stats, err := serving.RunWithStats(eng, c, cm, trace, serving.DefaultRunConfig())
		return func() *outcome {
			return &outcome{
				completed: len(recs),
				digest:    recordsDigest(recs),
				goodput:   metrics.Goodput(recs),
				slo:       metrics.Summarize(recs).SLOAttainment,
				makespan:  makespan(recs),
				simEvents: stats.Events,
			}
		}, err
	}, nil
}

func agentCensus(w *benchWorkload, seed int64) (int, time.Duration) {
	t0 := time.Now()
	n := workload.NumRequests(workload.SessionScripts(agentShape(w.size), seed))
	return n, time.Since(t0)
}

func agentPrepare(w *benchWorkload, seed int64, tr *tracer) (runFunc, error) {
	scripts := workload.SessionScripts(agentShape(w.size), seed)
	spec := vllmSpec()
	var policy fleet.Policy = fleet.NewContentAffinity()
	if tr != nil {
		tr.wrapSpec(&spec)
		// The wrapper hides *ContentAffinity from Gateway.Submit's type
		// assertion, which only feeds the content-route obs event; this
		// workload attaches no sink, so nothing observable changes.
		policy = tr.wrapPolicy(policy)
	}
	cfg := fleet.Config{
		Replicas:       agentReplicas,
		Policy:         policy,
		Cache:          fleet.CacheRadix,
		CacheTokens:    agentCacheBlocks * workload.BlockTokens,
		Directory:      true,
		ColdTierTokens: 4 * agentCacheBlocks * workload.BlockTokens,
	}
	return func() (func() *outcome, error) {
		res, err := fleet.RunSessions(spec, scripts, cfg, true)
		return func() *outcome { return fleetOutcome(res) }, err
	}, nil
}

func fleetOutcome(res *fleet.Result) *outcome {
	s := res.Summary()
	o := &outcome{
		completed:   s.N,
		digest:      fleetDigest(res),
		goodput:     res.Goodput(),
		slo:         s.SLOAttainment,
		hitRatio:    res.TokenHitRatio(),
		makespan:    res.End,
		simEvents:   res.SimEvents,
		fleet:       true,
		coldSpilled: res.Cold.Spilled,
		coldFetch:   res.Cold.Fetches,
		migrations:  res.Migrations.Count,
	}
	for _, rs := range res.Replicas {
		o.evicted += rs.CacheEvicted
		o.hitTokens += rs.HitTokens
		o.prefixTokens += rs.PrefixTokens
	}
	return o
}
