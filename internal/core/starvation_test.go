package core

import (
	"math/rand"
	"testing"
	"time"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// TestPreemptionDissolveWakesScheduler is the regression test for a lost
// wakeup: when ensureDecodeCapacity preempts the *last* request of the last
// remaining group (memory full, scale-up disabled), the group dissolves
// inside launchDecode. Without an explicit wakeup no future completion
// event exists, and the preempted request would wait in the pending queue
// forever while the whole cluster sits idle.
//
// The trace reproduces the original failing quick.Check seed: two
// ~500K-token requests whose combined future KV exceeds the cluster, so
// the younger one is preempted mid-decode and must be re-prefilled after
// the elder finishes.
func TestPreemptionDissolveWakesScheduler(t *testing.T) {
	m := model.LWM1MText()
	hw := cluster.A800()
	seed := int64(-1898716872070510195)
	rng := rand.New(rand.NewSource(seed))
	n := 6
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
	opts := Options{DisableScaleUp: true, DisableBorrowing: true}
	c, err := cluster.New(m, hw, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2, opts)
	recs, err := serving.Run(eng, c, costmodel.New(m, hw), trace, serving.DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("completed %d of %d requests (lost wakeup after preemption?)", len(recs), n)
	}
	if eng.pending.len() != 0 {
		t.Fatalf("%d requests stranded in the pending queue", eng.pending.len())
	}
	if eng.Preemptions == 0 {
		t.Fatal("trace no longer triggers a preemption; the regression scenario is gone")
	}
	if err := eng.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}
