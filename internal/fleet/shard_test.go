package fleet

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"
	"time"

	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// fleetRun is one session run the runner identity tests replay at several
// shard counts.
type fleetRun struct {
	name    string
	scripts []workload.SessionScript
	mk      func() Config // a fresh config per run: policies carry state
	closed  bool
	faults  []workload.Fault
	// setup, when set, schedules lifecycle actions on the gateway's heap.
	setup func(t *testing.T, g *Gateway, sim *simevent.Sim)
}

// run executes the session run at the given shard count with an obs
// collector attached, returning the result and the captured stream.
func (fr fleetRun) run(t *testing.T, shards int) (*Result, []obs.Event) {
	t.Helper()
	col := &obs.Collector{}
	cfg := fr.mk()
	cfg.Obs = col
	cfg.Shards = shards
	sim := simevent.New()
	g, err := NewGatewayGroups(cfg, sim)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", fr.name, shards, err)
	}
	InjectFaults(g, fr.faults)
	feed := FeedSessions(g, fr.scripts, fr.closed)
	if fr.setup != nil {
		fr.setup(t, g, sim)
	}
	res, err := feed.Run()
	if err != nil {
		t.Fatalf("%s shards=%d: %v", fr.name, shards, err)
	}
	return res, col.Events
}

// toyFleet is a fresh config of n toy replicas.
func toyFleet(n int, p Policy) Config {
	return Config{Groups: []ReplicaGroup{{Kind: NewKind("toy", toySpec()), Count: n}}, Policy: p}
}

// radixFleet is toyFleet on the radix cache.
func radixFleet(n int, p Policy) Config {
	cfg := toyFleet(n, p)
	cfg.Cache = CacheRadix
	return cfg
}

// provisionThenDrain is a closed-loop elastic run: a replica provisioned
// at t=1s (warming for 250ms) and replica 0 drained at t=1.5s, with a
// request still in flight on it.
func provisionThenDrain() fleetRun {
	return fleetRun{
		name: "provision-then-drain", scripts: chatScripts(60, 40, 0.05, 29), closed: true,
		mk: func() Config { return radixFleet(2, NewMigratingAffinity()) },
		setup: func(t *testing.T, g *Gateway, sim *simevent.Sim) {
			sim.At(simevent.Time(time.Second), func() {
				if _, err := g.AddReplica(250 * time.Millisecond); err != nil {
					t.Error(err)
				}
			})
			sim.At(simevent.Time(1500*time.Millisecond), func() {
				if err := g.DrainReplica(0); err != nil {
					t.Error(err)
				}
			})
		},
	}
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

// TestShardedMatchesSerial is the runner's determinism property: for every
// shard count, a run is byte-identical to the serial run (Shards=1 — the
// same window/barrier algorithm with no parallelism), with a clean audit,
// across routing policies, cache modes, the cold tier, a fault schedule
// with hedging armed, closed-loop feeds (whose windows the in-flight think
// times bound, down to zero think time), and a replica set that grows and
// drains mid-run. Worker partitioning must be invisible.
func TestShardedMatchesSerial(t *testing.T) {
	scripts := chatScripts(60, 4, 0.3, 17)
	hedged := func() Config {
		cfg := toyFleet(4, NewPrefixAffinity())
		cfg.Hedge = HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1}
		return cfg
	}
	cases := []fleetRun{
		{name: "least-loaded", mk: func() Config { return toyFleet(4, NewLeastLoaded()) }},
		{name: "prefix-affinity-radix", mk: func() Config { return radixFleet(4, NewPrefixAffinity()) }},
		{name: "cold-tier", mk: func() Config {
			cfg := radixFleet(4, NewPrefixAffinity())
			cfg.CacheTokens, cfg.ColdTierTokens = 40_000, 2_000_000
			return cfg
		}},
		{name: "faults-hedged", mk: hedged, faults: chaosFaults()},
		{name: "closed-loop", mk: func() Config { return radixFleet(4, NewMigratingAffinity()) }, closed: true},
		{name: "closed-loop-zero-think", scripts: chatScripts(60, 4, 0, 17),
			mk: func() Config { return radixFleet(4, NewPrefixAffinity()) }, closed: true},
		{name: "closed-loop-faults-hedged", mk: hedged, closed: true, faults: chaosFaults()},
		provisionThenDrain(),
	}
	for _, c := range cases {
		if c.scripts == nil {
			c.scripts = scripts
		}
		t.Run(c.name, func(t *testing.T) {
			serial, sev := c.run(t, 1)
			if vs := analyze.Audit(sev); len(vs) != 0 {
				t.Fatalf("serial stream failed audit (%d violations), first: %s", len(vs), vs[0])
			}
			// 7 > replica count exercises the worker clamp.
			for _, n := range []int{2, 4, 7} {
				sharded, shev := c.run(t, n)
				requireIdentical(t, c.name, serial, sharded, sev, shev)
			}
		})
	}
}

// runDigest fingerprints what a recorded reference pins: FNV-1a over the
// %+v rendering of records, per-replica stats, lifecycle events and the
// obs stream.
type runDigest struct{ Records, Replicas, Events, Obs uint64 }

func digestRun(res *Result, ev []obs.Event) runDigest {
	h := func(v any) uint64 {
		f := fnv.New64a()
		fmt.Fprintf(f, "%+v", v)
		return f.Sum64()
	}
	return runDigest{h(res.Records), h(res.Replicas), h(res.Events), h(ev)}
}

// TestShardedMatchesLegacyRunner pins the runner to digests recorded from
// the retired single-heap runner, which ordered same-instant events by heap
// sequence: an open-loop radix fleet, the same fleet closed-loop, and a
// closed-loop elastic fleet that provisions a replica and drains another
// mid-run. None of them ties events across replicas at one instant, so
// the barrier runner reproduces the old loop exactly, at every shard
// count.
func TestShardedMatchesLegacyRunner(t *testing.T) {
	prefix := func() Config { return radixFleet(3, NewPrefixAffinity()) }
	cases := []struct {
		fleetRun
		want runDigest
	}{
		{fleetRun{name: "open-radix", scripts: chatScripts(40, 3, 0.4, 29), mk: prefix},
			runDigest{0xca84362f2c539f59, 0xdb316dbb44b1b68b, 0x9612b07b5ecb5a5, 0x70f10ff5b1266224}},
		{fleetRun{name: "closed-loop", scripts: chatScripts(40, 3, 0.4, 29), mk: prefix, closed: true},
			runDigest{0x8f683e8436f938c1, 0x89389f61459b1ae3, 0x9612b07b5ecb5a5, 0x6e1d5883d0d4d9b}},
		{provisionThenDrain(),
			runDigest{0x534371c9b8f10c02, 0x2e2bb07500d0a58c, 0xdcc0914bb5a3da11, 0x5bd14cc0bc176e8d}},
	}
	for _, c := range cases {
		for _, n := range []int{1, 2, 4} {
			res, ev := c.run(t, n)
			if got := digestRun(res, ev); got != c.want {
				t.Errorf("%s shards=%d: digests %#v, recorded legacy %#v", c.name, n, got, c.want)
			}
		}
	}
}

// TestShardedRejectsNegativeShards: a negative shard count is a
// misconfiguration, refused when the gateway is built.
func TestShardedRejectsNegativeShards(t *testing.T) {
	cfg := toyFleet(2, nil)
	cfg.Shards = -1
	if _, err := NewGatewayGroups(cfg, simevent.New()); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestStreamFeedMatchesEagerFeed: the lazy stream feed replays the same
// workload to the same records and trace as the eager all-at-once feed,
// serial and sharded — lazy sampling changes memory shape, not behavior.
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
