package baselines

import (
	"reflect"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// fusionProbe wraps a ContBatch for the fusion identity tests. Init turns
// decode fusion on or off through Env.FuseDecode and stages a Load probe at
// each of probes; staged before any arrival, a probe fires ahead of every
// engine event at its instant, in both arms alike. Arrive counts arrivals
// that land while a fused window is live.
type fusionProbe struct {
	*ContBatch
	fuse      bool
	probes    []simevent.Time
	loads     []serving.LoadStats
	midWindow int
}

// probeEvery is deliberately not a round multiple of anything, so periodic
// probes land at arbitrary points inside fused windows.
const probeEvery = 7_300_001 * time.Nanosecond

func (p *fusionProbe) Init(env *serving.Env) error {
	env.FuseDecode = p.fuse
	if err := p.ContBatch.Init(env); err != nil {
		return err
	}
	probe := func() { p.loads = append(p.loads, p.Load()) }
	for _, at := range p.probes {
		env.Sim.Stage(at, probe)
	}
	return nil
}

func (p *fusionProbe) Arrive(r *serving.Request) {
	if p.fused.Live() {
		p.midWindow++
	}
	p.ContBatch.Arrive(r)
}

// fusionRun is one arm of a fusion identity comparison.
type fusionRun struct {
	recs        []metrics.Record
	events      uint64
	preemptions int
	loads       []serving.LoadStats
	midWindow   int
}

func runFusionArm(t *testing.T, mk func() *ContBatch, c func() *cluster.Cluster, cm *costmodel.CostModel, trace []workload.TimedRequest, fuse bool, probes []simevent.Time) fusionRun {
	t.Helper()
	p := &fusionProbe{ContBatch: mk(), fuse: fuse, probes: probes}
	recs, stats, err := serving.RunWithStats(p, c(), cm, trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(trace) {
		t.Fatalf("fuse=%v: completed %d of %d requests", fuse, len(recs), len(trace))
	}
	return fusionRun{recs, stats.Events, p.Preemptions, p.loads, p.midWindow}
}

// checkFusionIdentity runs trace with fusion off and on and requires
// identical records, preemption counts and Load snapshots at each probe
// time; nil probes means one every probeEvery over the whole makespan. It
// returns both arms for the caller's event-count checks.
func checkFusionIdentity(t *testing.T, name string, mk func() *ContBatch, c func() *cluster.Cluster, cm *costmodel.CostModel, trace []workload.TimedRequest, probes []simevent.Time) (plain, fused fusionRun) {
	t.Helper()
	if probes == nil {
		var horizon simevent.Time
		for _, r := range runFusionArm(t, mk, c, cm, trace, false, nil).recs {
			horizon = max(horizon, simevent.Time(r.Finish))
		}
		for at := simevent.Time(probeEvery); at <= horizon; at = at.Add(probeEvery) {
			probes = append(probes, at)
		}
	}
	plain = runFusionArm(t, mk, c, cm, trace, false, probes)
	fused = runFusionArm(t, mk, c, cm, trace, true, probes)
	if !reflect.DeepEqual(plain.recs, fused.recs) {
		t.Fatalf("%s: records differ with fusion on", name)
	}
	if plain.preemptions != fused.preemptions {
		t.Fatalf("%s: %d preemptions fused, %d plain", name, fused.preemptions, plain.preemptions)
	}
	if len(plain.loads) == 0 || !reflect.DeepEqual(plain.loads, fused.loads) {
		for i := range min(len(plain.loads), len(fused.loads)) {
			if plain.loads[i] != fused.loads[i] {
				t.Fatalf("%s: probe %d at %v: Load %+v fused, %+v plain", name, i,
					probes[i], fused.loads[i], plain.loads[i])
			}
		}
		t.Fatalf("%s: %d probes fused, %d plain", name, len(fused.loads), len(plain.loads))
	}
	return plain, fused
}

func shareGPTCluster(t *testing.T, tp int) (func() *cluster.Cluster, *costmodel.CostModel) {
	t.Helper()
	m := model.LWM1MText()
	hw := cluster.A800()
	return func() *cluster.Cluster {
		c, err := cluster.New(m, hw, 1, 8, tp)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}, costmodel.New(m, hw)
}

// TestContBatchDecodeFusionIdentity: over random traces, fused ContBatch
// decode produces the same records, preemption counts and mid-window Load
// snapshots as unfused decode. Locality placement (vLLM) fires strictly
// fewer events, and arrivals do land inside fused windows; spread placement
// (the static SPxTP hybrid) stays unfused and fires exactly as many.
func TestContBatchDecodeFusionIdentity(t *testing.T) {
	vllmCluster, cm := shareGPTCluster(t, 8)
	hybridCluster, _ := shareGPTCluster(t, 2)
	midWindow := 0
	for seed := int64(1); seed <= 4; seed++ {
		rate := 2 + float64(seed)
		trace := workload.PoissonTrace(workload.ShareGPT(), rate, 40, seed)

		plain, fused := checkFusionIdentity(t, "vLLM", func() *ContBatch { return NewVLLM(8) }, vllmCluster, cm, trace, nil)
		if fused.events >= plain.events {
			t.Fatalf("vLLM seed %d: fused run fired %d events, plain %d", seed, fused.events, plain.events)
		}
		midWindow += fused.midWindow

		plain, fused = checkFusionIdentity(t, "StaticHybrid", func() *ContBatch { return NewStaticHybrid(4, 2) }, hybridCluster, cm, trace, nil)
		if fused.events != plain.events || fused.midWindow != 0 {
			t.Fatalf("StaticHybrid seed %d: spread placement fused (%d events vs %d, %d mid-window arrivals)",
				seed, fused.events, plain.events, fused.midWindow)
		}
	}
	if midWindow == 0 {
		t.Fatal("no arrival landed inside a fused window; the traces do not exercise fission")
	}
}

// TestContBatchDecodeFusionUnderPreemption replays the starved preemption
// burst: preemption fires between fused windows, never inside one, so the
// fused run preempts exactly as often as the plain one.
func TestContBatchDecodeFusionUnderPreemption(t *testing.T) {
	c, cm := starvedCluster(t, 8, 4000)
	starved := func() *cluster.Cluster {
		cc, err := cluster.New(c.Model, c.HW, 1, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	plain, fused := checkFusionIdentity(t, "starved vLLM", func() *ContBatch { return NewVLLM(8) }, starved, cm, burstTrace(12, 50, 400), nil)
	if plain.preemptions == 0 {
		t.Fatal("trace did not trigger preemption; the starved scenario is broken")
	}
	if fused.events >= plain.events {
		t.Fatalf("fused run fired %d events, plain %d", fused.events, plain.events)
	}
}

// TestContBatchDecodeFusionAtBoundaries pins the tie rules: Load probes and
// an arrival landing on the exact nanosecond of interior boundaries of a
// fused window see every earlier boundary as happened and that one as
// pending, as the unfused engine does, whose decode event at that instant
// fires after them.
func TestContBatchDecodeFusionAtBoundaries(t *testing.T) {
	newCluster, cm := shareGPTCluster(t, 8)
	const in, out = 2_000, 40
	// The solo request's boundaries: its prefill, then one decode
	// iteration per further token, each rounded on its own.
	c := newCluster()
	link := c.GroupLink([]kvcache.InstanceID{0})
	at := simevent.Time(0).Add(cm.PrefillIterTime([]int{in}, 1, 8, link))
	var ends []simevent.Time
	for i := 0; i < out-1; i++ {
		at = at.Add(cm.DecodeIterTime(1, in+1+i, 1, 8, 1, link))
		ends = append(ends, at)
	}
	solo := []workload.TimedRequest{{Entry: workload.Entry{InputLen: in, OutputLen: out}}}
	vllm := func() *ContBatch { return NewVLLM(8) }
	if recs := runFusionArm(t, vllm, newCluster, cm, solo, false, nil).recs; simevent.Time(recs[0].Finish) != ends[len(ends)-1] {
		t.Fatalf("fixture: solo request finished at %v, computed boundaries end at %v", recs[0].Finish, ends[len(ends)-1])
	}
	trace := append(solo, workload.TimedRequest{
		Entry:   workload.Entry{InputLen: 300, OutputLen: 20},
		Arrival: time.Duration(ends[9]),
	})
	probes := []simevent.Time{ends[2], ends[3], ends[3] + 1, ends[9], ends[20]}
	_, fused := checkFusionIdentity(t, "boundary ties", vllm, newCluster, cm, trace, probes)
	if fused.midWindow != 1 {
		t.Fatalf("the boundary arrival found no live window (%d)", fused.midWindow)
	}
}

// TestFusedContBatchDecodeAllocatesNothing: a steady-state fused window —
// launch, a mid-window Load, and the closing event retiring the batch —
// allocates nothing, because the window's boundary buffer, the batch
// buffers and the pool's placement records are all reused.
func TestFusedContBatchDecodeAllocatesNothing(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	c, err := cluster.New(m, hw, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := simevent.New()
	env := &serving.Env{Sim: sim, Cluster: c, CM: costmodel.New(m, hw), Pool: c.NewPool(),
		Complete: func(*serving.Request) {}, FuseDecode: true}
	e := NewVLLM(1)
	if err := e.Init(env); err != nil {
		t.Fatal(err)
	}
	batch := make([]*serving.Request, 8)
	for i := range batch {
		batch[i] = &serving.Request{ID: kvcache.RequestID(i + 1), InputLen: 100, OutputLen: 64}
	}
	probe := func() { e.Load() }
	window := func() {
		for _, r := range batch {
			r.Phase, r.Generated = serving.Decoding, 1
			if err := env.Pool.AllocAt(r.ID, 0, r.InputLen+1); err != nil {
				t.Fatal(err)
			}
		}
		e.running = append(e.running[:0], batch...)
		e.step()
		if !e.fused.Live() {
			t.Fatal("decode did not fuse")
		}
		sim.Stage(sim.Now().Add(10*time.Millisecond), probe)
		fired := sim.Fired()
		sim.Run()
		if n := sim.Fired() - fired; n != 2 || len(e.running) != 0 {
			t.Fatalf("window fired %d events and left %d running, want 2 and 0", n, len(e.running))
		}
	}
	window() // grows the boundary buffer and the batch buffers once
	if avg := testing.AllocsPerRun(50, window); avg != 0 {
		t.Fatalf("fused decode window allocates %.1f objects, want 0", avg)
	}
}
