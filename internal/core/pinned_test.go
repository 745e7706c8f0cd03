package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// pinnedDigest folds everything observable about one finished engine run
// into one FNV-1a hash: every record, the elastic-scaling instrumentation
// and the execution trace (group ids, instance order, batch sizes).
func pinnedDigest(recs []serving.Request, eng *Engine, tr *Tracer) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "r%d %d %d %d %d %d|", r.ID, r.InputLen, r.OutputLen, r.Arrival, r.FirstToken, r.Finish)
	}
	fmt.Fprintf(h, "up%v down%d pre%d bor%d mig%d/%d bs%d g%d|",
		eng.ScaleUps, eng.ScaleDowns, eng.Preemptions, eng.Borrows,
		eng.Migrations, eng.MigratedTokens, eng.MaxDecodeBS, eng.MaxGroups)
	for _, ev := range tr.Events {
		fmt.Fprintf(h, "e%d %s %d %v %d %d|", ev.At, ev.Kind, ev.Group, ev.Instances, ev.Batch, ev.Tokens)
	}
	return h.Sum64()
}

// TestPinnedOutputDigests pins the ESP engine's complete output — records,
// scaling counters and the elastic trace — on a Mixed trace, a
// long-context trace, a preempting trace and a heavy chat trace, under
// every scheduling option, with and without decode fusion. The digests were recorded before the scheduler's
// bookkeeping was made map-free; any change to a scheduling decision
// (dispatch order, mastership, instance order, tie-breaks) changes them.
func TestPinnedOutputDigests(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	traces := []struct {
		name  string
		trace []workload.TimedRequest
	}{
		{"mixed", workload.PoissonTrace(workload.Mixed(), 0.15, 120, 11)},
		{"longctx", workload.PoissonTrace(workload.LVEval(), 0.08, 40, 5)},
		{"preempt", preemptionTrace()},
		// Heavy short-chat load: dispatch rounds drop several requests back
		// to the pending queue at once, so requeue order is observable.
		{"chat", workload.PoissonTrace(workload.ShareGPT(), 20, 300, 5)},
	}
	arms := []struct {
		name string
		opts Options
		fuse bool
	}{
		{"default", Options{}, false},
		{"noscaleup", Options{DisableScaleUp: true}, false},
		{"nodp", Options{DisableDPBatching: true}, false},
		{"qi", Options{UseQIBatching: true}, false},
		{"noborrow", Options{DisableBorrowing: true}, false},
		{"static", Options{DisableScaleUp: true, DisableBorrowing: true}, false},
		{"fused", Options{}, true},
	}
	want := map[string]uint64{
		"mixed/default":     0xcbd44de70cebd335,
		"mixed/noscaleup":   0xfa8869695384455c,
		"mixed/nodp":        0xd5645ed06dfe7453,
		"mixed/qi":          0xcbd44de70cebd335,
		"mixed/noborrow":    0xe22043d27e1940f4,
		"mixed/static":      0x457a872dfe838b5d,
		"mixed/fused":       0xcbd44de70cebd335,
		"longctx/default":   0x17417d8754f0e605,
		"longctx/noscaleup": 0x46b51784298ed69e,
		"longctx/nodp":      0xea26f50714364db5,
		"longctx/qi":        0x17417d8754f0e605,
		"longctx/noborrow":  0xb8586b3a1655ed80,
		"longctx/static":    0x28cc6e8c73f4aca2,
		"longctx/fused":     0x17417d8754f0e605,
		"preempt/default":   0x220f673e8ad67051,
		"preempt/noscaleup": 0x5ff2bfcef969a324,
		"preempt/nodp":      0x4cd10ab39ffdfe21,
		"preempt/qi":        0x220f673e8ad67051,
		"preempt/noborrow":  0x78e3a98ca3a29654,
		"preempt/static":    0x56d592a9888d7b35,
		"preempt/fused":     0x220f673e8ad67051,
		"chat/default":      0x5dc71137c39af0df,
		"chat/noscaleup":    0x2425f148d46e89f6,
		"chat/nodp":         0x6c2304958d29ed05,
		"chat/qi":           0x5dc71137c39af0df,
		"chat/noborrow":     0x9ccad2812ce94f30,
		"chat/static":       0x4f648dce960e8e8c,
		"chat/fused":        0x5dc71137c39af0df,
	}
	for _, tc := range traces {
		for _, arm := range arms {
			key := tc.name + "/" + arm.name
			c, err := cluster.New(m, hw, 1, 8, 2)
			if err != nil {
				t.Fatal(err)
			}
			eng := New(2, arm.opts)
			eng.SetDecodeFusion(arm.fuse)
			tr := eng.AttachTracer()
			var done []serving.Request
			recs, err := serving.Run(&completionTap{Engine: eng, done: &done}, c, cm, tc.trace, serving.DefaultRunConfig())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if len(recs) != len(tc.trace) {
				t.Fatalf("%s: completed %d of %d", key, len(recs), len(tc.trace))
			}
			if err := eng.CheckDrained(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := pinnedDigest(done, eng, tr)
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%s: digest %#016x, want %#016x", key, got, w)
			}
		}
	}
}

// preemptionTrace is TestPreemptionDissolveWakesScheduler's trace: two
// ~500K-token requests whose combined future KV exceeds the cluster, so
// with scale-up and borrowing off the younger one is preempted mid-decode.
func preemptionTrace() []workload.TimedRequest {
	rng := rand.New(rand.NewSource(-1898716872070510195))
	var trace []workload.TimedRequest
	at := time.Duration(0)
	for i := 0; i < 6; i++ {
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

// completionTap wraps the engine's completion callback to keep a copy of
// every finished request in completion order.
type completionTap struct {
	*Engine
	done *[]serving.Request
}

func (c *completionTap) Init(env *serving.Env) error {
	complete := env.Complete
	env.Complete = func(r *serving.Request) {
		*c.done = append(*c.done, *r)
		complete(r)
	}
	return c.Engine.Init(env)
}
