package fleet

import (
	"testing"

	"loongserve/internal/obs"
	"loongserve/internal/simevent"
)

// The node pools exist so steady-state churn — resident sets turning over
// for hours of simulated time — allocates nothing. These are regression
// tests for that property: AllocsPerRun must report zero for the
// remove/reinsert cycles that dominate long runs.

func TestPrefixCacheSteadyStateZeroAllocs(t *testing.T) {
	c := NewPrefixCache(10_000, false)
	for i := 1; i <= 8; i++ {
		c.Put(PrefixKey(i), 1000)
	}
	key := PrefixKey(3)
	if avg := testing.AllocsPerRun(200, func() {
		c.Remove(key)
		c.Put(key, 1000)
		c.Lookup(key)
	}); avg != 0 {
		t.Fatalf("whole-key remove/put/lookup cycle allocates %.1f per run, want 0", avg)
	}
}

func TestRadixCacheSteadyStateZeroAllocs(t *testing.T) {
	c := NewRadixCache(100_000, 100, false, nil)
	trunk := []uint64{11, 12, 13}
	tail := []uint64{11, 12, 13, 14, 15, 16}
	c.Put(tail)
	if avg := testing.AllocsPerRun(200, func() {
		c.RemoveExclusive(tail)
		c.Put(tail)
		c.Lookup(trunk)
	}); avg != 0 {
		t.Fatalf("radix remove/put/lookup cycle allocates %.1f per run, want 0", avg)
	}
}

func TestRadixIndexSteadyStateZeroAllocs(t *testing.T) {
	ix := NewRadixIndex()
	parent := ix.acquire(21, nil, 0)
	// Warm the free list, then measure the name/unname cycle.
	ix.release(ix.acquire(22, parent, 1))
	if avg := testing.AllocsPerRun(200, func() {
		r := ix.acquire(22, parent, 1)
		ix.release(r)
	}); avg != 0 {
		t.Fatalf("index acquire/release cycle allocates %.1f per run, want 0", avg)
	}
}

func TestLRUListZeroAllocs(t *testing.T) {
	var l lruList
	l.init()
	l.remove(l.pushFront(1, 10)) // warm the pool
	if avg := testing.AllocsPerRun(200, func() {
		e := l.pushFront(2, 20)
		l.moveToFront(e)
		l.remove(e)
	}); avg != 0 {
		t.Fatalf("lru push/move/remove cycle allocates %.1f per run, want 0", avg)
	}
}

// TestShardBufSteadyStateZeroAllocs covers the sharded runner's per-window
// hot path: buffering a replica's output and draining it at the barrier
// must reuse the entry storage.
func TestShardBufSteadyStateZeroAllocs(t *testing.T) {
	buf := &shardBuf{}
	// Warm capacity for the steady per-window entry count.
	for i := 0; i < 16; i++ {
		buf.complete(0, nil)
	}
	buf.reset()
	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			buf.complete(1, nil)
		}
		buf.reset()
	}); avg != 0 {
		t.Fatalf("shard buffer fill/reset cycle allocates %.1f per run, want 0", avg)
	}
}

// TestShardReplayZeroAllocs covers the barrier merge: replaying buffered
// engine output from several replicas in canonical order must reuse the
// merge scratch and sort without allocating.
func TestShardReplayZeroAllocs(t *testing.T) {
	cfg := toyFleet(4, nil)
	cfg.Obs = obs.Tee{} // a sink that drops everything
	g, err := NewGatewayGroups(cfg, simevent.New())
	if err != nil {
		t.Fatal(err)
	}
	fill := func() {
		for i := 0; i < 8; i++ {
			for ri, rep := range g.replicas {
				// Interleaved times and same-instant ties across replicas.
				rep.buf.Emit(obs.Event{At: simevent.Time((i*7 + ri*3) % 11), Replica: ri})
			}
		}
	}
	fill()
	g.shard.replay() // warm the merge scratch
	if avg := testing.AllocsPerRun(200, func() {
		fill()
		if !g.shard.replay() {
			t.Fatal("replay found no buffered entries")
		}
	}); avg != 0 {
		t.Fatalf("barrier replay of buffered entries allocates %.1f per run, want 0", avg)
	}
}

func TestAffinityPickZeroAllocs(t *testing.T) {
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5), PrefixLen: 3500}
	vs := views(&fakeReplica{tokens: 50_000, cached: 3500, session: 3500}, &fakeReplica{}, &fakeReplica{tokens: 100})
	var m Migrator = fixedMigrator{cost: 500}
	for _, p := range []Policy{NewPrefixAffinity(), NewMigratingAffinity(), NewCapabilityAffinity(), NewContentAffinity()} {
		if avg := testing.AllocsPerRun(100, func() {
			if ma, ok := p.(MigrationAware); ok {
				ma.PickMigrate(req, vs, m)
			} else {
				p.Pick(req, vs)
			}
		}); avg != 0 {
			t.Errorf("%s pick allocates %.1f per run, want 0", p.Name(), avg)
		}
	}
}
