package fleet

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/core"
	"loongserve/internal/model"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// shardRun executes one open-loop session run at the given shard count with
// an obs collector attached, returning the result and the captured stream.
func shardRun(t *testing.T, scripts []workload.SessionScript, cfg Config, shards int, faults []workload.Fault) (*Result, []obs.Event) {
	t.Helper()
	col := &obs.Collector{}
	cfg.Obs = col
	cfg.Shards = shards
	res, err := RunSessionsFaults(scripts, cfg, false, faults)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return res, col.Events
}

// requireIdentical asserts two runs are observationally byte-identical:
// records, per-replica stats, lifecycle events, fault/hedge accounting,
// simulator event counts, makespan, and the full obs stream.
func requireIdentical(t *testing.T, label string, a, b *Result, aev, bev []obs.Event) {
	t.Helper()
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatalf("%s: records differ", label)
	}
	if !reflect.DeepEqual(a.Replicas, b.Replicas) {
		t.Fatalf("%s: replica stats differ", label)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("%s: lifecycle events differ", label)
	}
	if a.Faults != b.Faults || a.Hedge != b.Hedge {
		t.Fatalf("%s: fault/hedge accounting differs: %+v/%+v vs %+v/%+v",
			label, a.Faults, a.Hedge, b.Faults, b.Hedge)
	}
	if a.SimEvents != b.SimEvents {
		t.Fatalf("%s: simulator event counts differ: %d vs %d", label, a.SimEvents, b.SimEvents)
	}
	if a.End != b.End {
		t.Fatalf("%s: makespans differ: %v vs %v", label, a.End, b.End)
	}
	if !reflect.DeepEqual(aev, bev) {
		if len(aev) != len(bev) {
			t.Fatalf("%s: obs stream lengths differ: %d vs %d", label, len(aev), len(bev))
		}
		for i := range aev {
			if !reflect.DeepEqual(aev[i], bev[i]) {
				t.Fatalf("%s: obs stream diverges at event %d:\n  %+v\n  %+v", label, i, aev[i], bev[i])
			}
		}
	}
}

// TestShardedMatchesSerial is the tentpole determinism property: for every
// shard count, a sharded run is byte-identical to the serial reference
// (Shards=1 — the same window/barrier algorithm with no parallelism),
// across routing policies, cache modes, the cold tier, and a fault schedule
// with hedging armed. Worker partitioning must be invisible.
func TestShardedMatchesSerial(t *testing.T) {
	scripts := chatScripts(60, 4, 0.3, 17)
	cases := []struct {
		name   string
		mk     func() Config
		faults []workload.Fault
	}{
		{"least-loaded", func() Config {
			return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}}, Policy: NewLeastLoaded()}
		}, nil},
		{"prefix-affinity-radix", func() Config {
			return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
		}, nil},
		{"cold-tier", func() Config {
			return Config{
				Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}},
				Policy: NewPrefixAffinity(), Cache: CacheRadix,
				CacheTokens: 40_000, ColdTierTokens: 2_000_000,
			}
		}, nil},
		{"faults-hedged", func() Config {
			return Config{
				Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 4}},
				Policy: NewPrefixAffinity(),
				Hedge:  HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1},
			}
		}, chaosFaults()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, sev := shardRun(t, scripts, c.mk(), 1, c.faults)
			if vs := analyze.Audit(sev); len(vs) != 0 {
				t.Fatalf("serial stream failed audit (%d violations), first: %s", len(vs), vs[0])
			}
			// 7 > replica count exercises the worker clamp.
			for _, n := range []int{2, 4, 7} {
				sharded, shev := shardRun(t, scripts, c.mk(), n, c.faults)
				requireIdentical(t, c.name, serial, sharded, sev, shev)
			}
		})
	}
}

// TestShardedMatchesLegacyRunner: the single-heap runner and the sharded
// runner agree on this workload (no same-instant cross-replica ties, so
// the canonical merge order coincides with heap order). Not a general
// guarantee — the identity contract is between shard counts — but a strong
// cross-implementation check while it holds.
func TestShardedMatchesLegacyRunner(t *testing.T) {
	scripts := chatScripts(40, 3, 0.4, 29)
	mk := func() Config {
		return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 3}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
	}
	legacy, lev := shardRun(t, scripts, mk(), 0, nil)
	sharded, shev := shardRun(t, scripts, mk(), 3, nil)
	requireIdentical(t, "legacy-vs-sharded", legacy, sharded, lev, shev)
}

// loongFleetConfig builds a 2-replica fleet of real ESP engines — the
// fusion identity tests need engines that actually fuse.
func loongFleetConfig() Config {
	m := model.LWM1MText()
	hw := cluster.A800()
	kind := NewKind("loong", Spec{
		NewEngine: func() serving.Engine { return core.New(2, core.Options{}) },
		NewCluster: func() (*cluster.Cluster, error) {
			return cluster.New(m, hw, 1, 4, 2)
		},
	})
	return Config{Groups: []ReplicaGroup{{Kind: kind, Count: 2}}, Policy: NewLeastLoaded()}
}

// TestDecodeFusionIdentity: with fusion on, every observable output is
// byte-identical to fusion off — records, stats, obs stream — while the
// simulator fires strictly fewer events. Checked on both runners.
func TestDecodeFusionIdentity(t *testing.T) {
	cfg := workload.DefaultSessionConfig()
	cfg.Sessions = 20
	cfg.SessionRate = 1
	cfg.ThinkMean = 2
	scripts := workload.SessionScripts(cfg, 41)

	for _, shards := range []int{0, 2} {
		run := func(fuse bool) (*Result, []obs.Event) {
			c := loongFleetConfig()
			c.FuseDecode = fuse
			res, ev := shardRun(t, scripts, c, shards, nil)
			return res, ev
		}
		plain, pev := run(false)
		fused, fev := run(true)
		if fused.SimEvents >= plain.SimEvents {
			t.Fatalf("shards=%d: fusion fired %d events, plain %d — no event reduction",
				shards, fused.SimEvents, plain.SimEvents)
		}
		// SimEvents legitimately differ; compare everything else.
		fused.SimEvents = plain.SimEvents
		requireIdentical(t, "fusion", plain, fused, pev, fev)
	}
}

// TestShardedRejectsClosedLoop: the window invariant needs arrival
// lookahead, so closed-loop feeds must be refused, not silently corrupted.
func TestShardedRejectsClosedLoop(t *testing.T) {
	scripts := chatScripts(5, 2, 0.1, 3)
	cfg := Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 2}}, Shards: 2}
	if _, err := RunSessionsGroups(scripts, cfg, true); err == nil {
		t.Fatal("closed-loop sharded run accepted")
	}
	// A feed built by hand is guarded by its own Run, not only by RunSessions*.
	g, err := NewGatewayGroups(cfg, simevent.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FeedSessions(g, scripts, true).Run(); err == nil {
		t.Fatal("hand-built closed-loop feed ran sharded")
	}
}

// TestShardedRejectsProvisioning: sharded fleets are static — mid-run
// scale-up would repartition replicas under the worker pool.
func TestShardedRejectsProvisioning(t *testing.T) {
	sim := simevent.New()
	cfg := Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 2}}, Shards: 2}
	g, err := NewGatewayGroups(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddReplica(time.Second); err == nil {
		t.Fatal("AddReplica accepted on a sharded run")
	}
	if _, err := NewGatewayGroups(Config{Groups: cfg.Groups, Shards: -1}, simevent.New()); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestStreamFeedMatchesEagerFeed: the lazy stream feed replays the same
// workload to the same records and trace as the eager all-at-once feed, on
// both runners — lazy sampling changes memory shape, not behavior.
func TestStreamFeedMatchesEagerFeed(t *testing.T) {
	wcfg := workload.DefaultSessionConfig()
	wcfg.Sessions = 50
	wcfg.SessionRate = 3
	wcfg.ThinkMean = 0.5
	scripts := workload.SessionScripts(wcfg, 13)
	mk := func() Config {
		return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 3}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
	}
	eager, err := RunSessionsGroups(scripts, mk(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 3} {
		cfg := mk()
		cfg.Shards = shards
		lazy, err := RunSessionStream(workload.StreamSessions(wcfg, 13), cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(eager.Records, lazy.Records) {
			t.Fatalf("shards=%d: stream feed records differ from eager feed", shards)
		}
		if !reflect.DeepEqual(eager.Trace, lazy.Trace) {
			t.Fatalf("shards=%d: stream feed trace differs from eager feed", shards)
		}
	}
}

// TestFeedOrdersSlicesByConvertedStart: a slice feed serves sessions in
// stable order of simulated start time, the (at, seq) order of staging each
// start. Two float starts that land on the same nanosecond keep their slice
// order, so a sort on the float Start would swap their request IDs. The
// reference is the slice sorted by hand with each start snapped to its
// nanosecond, an order every sort the feed could do leaves alone.
func TestFeedOrdersSlicesByConvertedStart(t *testing.T) {
	scripts := chatScripts(8, 2, 0.5, 17)
	for i, start := range []float64{3, 1, 2 + 1e-12, 2, 0.5, 4, 2.5, 0} {
		scripts[i].Start = start
	}
	if simevent.FromSeconds(scripts[2].Start) != simevent.FromSeconds(scripts[3].Start) || scripts[2].Start <= scripts[3].Start {
		t.Fatal("fixture: sessions 2 and 3 must share a nanosecond in descending float order")
	}
	sorted := slices.Clone(scripts)
	slices.SortStableFunc(sorted, func(a, b workload.SessionScript) int {
		return cmp.Compare(simevent.FromSeconds(a.Start), simevent.FromSeconds(b.Start))
	})
	for i := range sorted {
		sorted[i].Start = simevent.FromSeconds(sorted[i].Start).Seconds()
	}
	mk := func() Config {
		return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: 2}}, Policy: NewPrefixAffinity(), Cache: CacheRadix}
	}
	for _, closed := range []bool{false, true} {
		want, err := RunSessionsGroups(sorted, mk(), closed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSessionsGroups(scripts, mk(), closed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Records, got.Records) {
			t.Fatalf("closed=%v: out-of-order slice records differ from the stably sorted slice", closed)
		}
		if !reflect.DeepEqual(want.Trace, got.Trace) {
			t.Fatalf("closed=%v: out-of-order slice trace differs from the stably sorted slice", closed)
		}
	}
}
