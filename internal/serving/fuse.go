package serving

import (
	"loongserve/internal/cluster"
	"loongserve/internal/costmodel"
	"loongserve/internal/simevent"
)

// Decode-iteration fusion, shared by every engine that implements it.
//
// An engine may collapse K consecutive decode iterations of one batch into
// a single simulator event when nothing observable could differ between
// them. The engine proves that its own scheduler is quiescent for the
// window: no queued request could be admitted, and no scheduler pass
// between iterations could pause, grow, shrink, preempt or rebalance the
// batch. FusedDecode carries the rest of the proof, which is the same for
// every engine:
//
//  1. Window length. K = min(K_fin, K_cap): K_fin is the fewest output
//     tokens any batched request still owes, so no request finishes before
//     the window's last boundary, and K_cap is how many iterations the KV
//     headroom covers, so every interior allocation succeeds. K < 2 means
//     "run unfused": a one-iteration window is just a normal iteration
//     (WindowLen).
//  2. Boundary times. Iteration i (from 0) lasts
//     DecodeIterTime(bs, sumKV+i·bs, …), each rounded to nanoseconds on
//     its own, and starts where iteration i−1 ended — the unfused
//     schedule, which arms each iteration at the previous boundary. Every
//     boundary is kept, so deferred state materializes on exactly that
//     schedule (Launch).
//  3. Materialization. A reader at time now (Load) sees every boundary
//     strictly before now as happened and the one at now as pending.
//     serving.Run and the fleet runner both fire an arrival or probe
//     before an engine event at the same instant — serving.Run stages
//     every arrival before the run starts, so arrivals carry the lowest
//     sequence numbers, and the fleet runner fires the gateway first — so
//     that is the unfused order (Sync).
//  4. Fission. An arrival breaks the engine's quiescence proof. The engine
//     first materializes as in 3, then re-arms its decode event at the
//     in-flight iteration's boundary as a normal one-iteration event, so
//     the engine the arrival observes is the unfused one (Fission).
//  5. Close. The window's own event applies the remaining iterations at
//     once. KV accounting is count-based: one AllocAt of n tokens leaves
//     the pool exactly as n single-token ones do, so batching the
//     allocations cannot be observed (Close).
//
// Under 1–5 a fused run produces the same records, load reports and trace
// events as the unfused one, and fires fewer simulator events.

// FusedDecode is one engine's fused decode window: the boundary time of
// each iteration and how many of them have materialized. The zero value is
// an idle window. The boundary buffer is reused across windows, so
// steady-state fusion allocates nothing.
type FusedDecode struct {
	ends []simevent.Time // boundaries of the live window; empty when idle
	done int
}

// WindowLen returns the window length K = min(K_fin, kcap) for batch, or 0
// when K < 2 and the batch must run unfused. kcap is the number of
// iterations the engine's KV headroom covers.
func WindowLen(batch []*Request, kcap int) int {
	k := kcap
	for _, r := range batch {
		k = min(k, r.OutputLen-r.Generated)
	}
	if k < 2 {
		return 0
	}
	return k
}

// Live reports whether a window is in flight.
func (w *FusedDecode) Live() bool { return len(w.ends) > 0 }

// Launch opens a window of k iterations of a bs-request batch holding sumKV
// resident KV tokens, starting at now, and returns its last boundary: the
// time the engine arms its decode event for. Iteration i lasts
// cm.DecodeIterTime(bs, sumKV+i*bs, sp, tp, masters, link).
func (w *FusedDecode) Launch(now simevent.Time, k int, cm *costmodel.CostModel, bs, sumKV, sp, tp, masters int, link cluster.Link) simevent.Time {
	ends := w.ends[:0]
	t := now
	for i := 0; i < k; i++ {
		t = t.Add(cm.DecodeIterTime(bs, sumKV+i*bs, sp, tp, masters, link))
		ends = append(ends, t)
	}
	w.ends, w.done = ends, 0
	return t
}

// Sync returns the iterations that completed since the last materialization
// — boundaries strictly before now — and counts them as materialized. The
// engine applies them. It returns 0 when no window is live.
func (w *FusedDecode) Sync(now simevent.Time) int {
	j := w.done
	for j < len(w.ends) && w.ends[j] < now {
		j++
	}
	n := j - w.done
	w.done = j
	return n
}

// Fission ends a live window early, at now: it returns the iterations to
// apply, as Sync does, and re-arms ev — the engine's decode event, pending
// at the window's last boundary — at the in-flight iteration's boundary,
// where it completes as a normal one-iteration event.
func (w *FusedDecode) Fission(sim *simevent.Sim, ev *simevent.Event) int {
	n := w.Sync(sim.Now())
	sim.Cancel(ev)
	sim.ScheduleAt(ev, w.ends[w.done])
	w.ends = w.ends[:0]
	return n
}

// Close ends a live window at its last boundary and returns the iterations
// still to apply.
func (w *FusedDecode) Close() int {
	n := len(w.ends) - w.done
	w.ends = w.ends[:0]
	return n
}
