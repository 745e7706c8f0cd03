package core

import (
	"math/rand"
	"runtime"
	"testing"

	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/model"
	"loongserve/internal/serving"
	"loongserve/internal/workload"
)

// randDPInput builds one Eq 5 problem of the given size over the shared
// scratch input (mirroring how the engine reuses e.dp.in across rounds).
func fillDPInput(in *batchDPInput, rng *rand.Rand, n, m int) {
	in.lens = in.lens[:0]
	in.reserve = in.reserve[:0]
	in.free = in.free[:0]
	last := 200_000
	for i := 0; i < n; i++ {
		l := rng.Intn(last) + 1
		last = l
		in.lens = append(in.lens, l)
		in.reserve = append(in.reserve, l+1)
	}
	for k := 0; k < m; k++ {
		in.free = append(in.free, 100_000+rng.Intn(200_000))
	}
	for k := 1; k < len(in.free); k++ {
		if in.free[k] < in.free[k-1] {
			in.free[k] = in.free[k-1]
		}
	}
	if cap(in.coeffs) < m+1 {
		in.coeffs = make([]costmodel.Coeffs, m+1)
		in.have = make([]bool, m+1)
	}
	in.coeffs = in.coeffs[:m+1]
	in.have = in.have[:m+1]
	for sp := 1; sp <= m; sp++ {
		in.coeffs[sp] = costmodel.Coeffs{Alpha: 0.05, Beta: 2e-6 / float64(sp), Gamma: 1e-12 / float64(sp)}
		in.have[sp] = true
	}
}

// The Eq 5 solvers run on every prefill round; with the reusable scratch
// matrices their steady state must stay within a small constant allocation
// count (the returned segment list), instead of the former O(n·m) matrix
// rows per call.
func TestBatchDPSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := &batchDPInput{}
	fillDPInput(in, rng, 24, 8)
	if _, _, ok := solveBatchDP(in); !ok {
		t.Fatal("warm-up solve infeasible")
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, _, ok := solveBatchDP(in); !ok {
			t.Fatal("solve infeasible")
		}
	}); avg > 4 {
		t.Fatalf("solveBatchDP steady state allocates %.1f objects per call, want <= 4 (result slice growth only)", avg)
	}

	if _, _, ok := solveBatchDPQI(in); !ok {
		t.Fatal("warm-up QI solve infeasible")
	}
	// The QI solver additionally builds one divide-and-conquer closure per
	// (k, DoP) layer.
	if avg := testing.AllocsPerRun(50, func() {
		if _, _, ok := solveBatchDPQI(in); !ok {
			t.Fatal("QI solve infeasible")
		}
	}); avg > float64(3+8*8) {
		t.Fatalf("solveBatchDPQI steady state allocates %.1f objects per call", avg)
	}
}

// TestServingAllocBudget bounds the whole engine's allocations per request
// on a Mixed trace below saturation (the esp-longctx shape): the scheduler
// runs on every arrival and decode iteration, and its steady state must
// not allocate — what remains is per-request and per-prefill-launch work
// (records, groups, retained batch and instance slices). A map or a
// per-call buffer back on the decode path costs hundreds per request.
func TestServingAllocBudget(t *testing.T) {
	const n, budget = 400, 100
	m := model.LWM1MText()
	hw := cluster.A800()
	cm := costmodel.New(m, hw)
	for seed := int64(1); seed <= 3; seed++ {
		trace := workload.PoissonTrace(workload.Mixed(), 0.15, n, seed)
		c, err := cluster.New(m, hw, 1, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(2, Options{})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		recs, _, err := serving.RunWithStats(eng, c, cm, trace, serving.DefaultRunConfig())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != n {
			t.Fatalf("seed %d: completed %d of %d", seed, len(recs), n)
		}
		if perReq := float64(after.Mallocs-before.Mallocs) / n; perReq > budget {
			t.Errorf("seed %d: %.1f allocs/request, budget %d", seed, perReq, budget)
		} else {
			t.Logf("seed %d: %.1f allocs/request", seed, perReq)
		}
	}
}
