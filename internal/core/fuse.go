package core

import (
	"loongserve/internal/cluster"
	"loongserve/internal/serving"
)

// Decode-iteration fusion: when the engine can prove that the next K decode
// iterations of a group are fully determined — same batch, same masters,
// same DoP, no scheduler action possible between them — it collapses them
// into one simulator event and defers the per-iteration token/KV bookkeeping
// until someone needs it. Long steady decodes (the common state of a
// long-context workload) then cost O(1) events instead of O(output length).
//
// The window bookkeeping and the engine-independent half of the exactness
// argument — window length, boundary times, materialization, fission and
// the batched close — live in serving.FusedDecode. This file proves the
// engine half: with fusion enabled the ESP scheduler fuses only when, at
// launch time:
//
//  1. The group is the engine's only live group and the pending queue is
//     empty. Then every scheduler pass between iterations
//     (scheduleOnePrefillRound, considerMerges, wakeIfPending) is a no-op,
//     and nothing can pause, borrow from, merge into or join the group —
//     all of those paths begin with a pending request or a second group.
//  2. The unclamped compute-threshold master demand ceil(bs/threshold) is
//     already ≤ the distinct master count, so considerComputeScaleUp
//     returns without touching the group on every interior boundary.
//  3. shrinkDecode would keep every instance (each one masters a request
//     or holds group KV). Interior iterations only add KV to masters, so a
//     no-op shrink at launch stays a no-op for the whole window.
//  4. K ≤ K_fin: retireFinished is a no-op on every interior boundary.
//  5. K ≤ K_cap = min over masters m of ⌊Free(m)/assigned(m)⌋: every
//     interior AllocAt succeeds and ensureDecodeCapacity finds zero deficit
//     at every interior boundary (after i iterations Free(m) has dropped by
//     i·assigned(m), still ≥ (K−i)·assigned(m)).
//
// Under 1–5 the unfused engine would execute K identical
// decodeIterDone→schedule→launchDecode cycles whose only effects are
// Generated++ and one AllocAt per request per iteration on its master.
// The only external entry points into a running engine are Arrive, which
// fissions the window first, and the read-only reporters; Load
// materializes lazily without breaking the window.

// DecodeFusionStats reports fusion effectiveness for one engine.
type DecodeFusionStats struct {
	Windows int // fused windows launched
	Iters   int // decode iterations executed inside fused windows
}

// SetDecodeFusion implements serving.DecodeFuser: it enables (or disables)
// decode-iteration fusion for subsequently launched decode windows.
// Disabling does not fission an in-flight window. Init also enables fusion
// when Env.FuseDecode is set.
func (e *Engine) SetDecodeFusion(on bool) { e.fuseDecode = on }

// FusionStats reports how much decoding ran fused.
func (e *Engine) FusionStats() DecodeFusionStats { return e.fusion }

// fuseEligible checks conditions 1–5 above and returns the window length K
// (0 when the group must run unfused). bs and masters are the launch-time
// batch size and distinct master count the caller already computed.
func (e *Engine) fuseEligible(g *group, bs, masters int) int {
	if len(e.groupList) != 1 || e.groupList[0] != g || e.pending.len() != 0 {
		return 0
	}
	threshold := e.sib.DecodeBSThreshold
	if threshold < 1 {
		threshold = 1
	}
	if (bs+threshold-1)/threshold > masters {
		return 0 // compute scale-up would fire on an interior boundary
	}
	if !e.shrinkNoop(g) {
		return 0
	}
	return serving.WindowLen(g.reqs, e.capIterations(g))
}

// shrinkNoop reports whether shrinkDecode would keep every group instance.
func (e *Engine) shrinkNoop(g *group) bool {
	if len(g.instances) <= 1 {
		return true
	}
	mark := e.markInUse(g)
	for _, id := range g.instances {
		if e.marks[id] != mark {
			return false
		}
	}
	return true
}

// capIterations returns K_cap: how many iterations every master can absorb
// its per-iteration token share. Masters are visited in order of first
// appearance in the batch; zeroing a master's count marks it visited.
func (e *Engine) capIterations(g *group) int {
	e.countAssigned(g)
	kcap := 0
	for _, m := range g.masters {
		n := e.assigned[m]
		if n == 0 {
			continue
		}
		e.assigned[m] = 0
		if k := e.free(m) / n; kcap == 0 || k < kcap {
			kcap = k
		}
	}
	return kcap
}

// launchFused arms one event covering K iterations.
func (e *Engine) launchFused(g *group, k, bs, sumKV, masters int, link cluster.Link) {
	end := e.fused.Launch(e.env.Sim.Now(), k, e.env.CM, bs, sumKV, len(g.instances), e.TP, masters, link)
	g.running = true
	g.inflight = bs
	if g.decodeEv == nil {
		g.decodeEv = e.env.Sim.NewEvent(func() { e.decodeIterDone(g) })
	}
	e.env.Sim.ScheduleAt(g.decodeEv, end)
	e.fusedGroup = g
	e.fusion.Windows++
	e.fusion.Iters += k
}

// applyFused materializes n deferred iterations of g's in-flight batch:
// each request gains n tokens, allocated on its master in one call.
func (e *Engine) applyFused(g *group, n int) {
	if n == 0 {
		return
	}
	for i, r := range g.reqs[:g.inflight] {
		r.Generated += n
		if err := e.env.Pool.AllocAt(r.ID, g.masters[i], n); err != nil {
			panic(err)
		}
	}
}

// syncFused brings deferred decode state current for an external reader.
func (e *Engine) syncFused() {
	if g := e.fusedGroup; g != nil {
		e.applyFused(g, e.fused.Sync(e.env.Sim.Now()))
	}
}

// fissionFused dissolves an in-flight fused window because the stability
// conditions are about to break (an arrival).
func (e *Engine) fissionFused() {
	if g := e.fusedGroup; g != nil {
		e.applyFused(g, e.fused.Fission(e.env.Sim, g.decodeEv))
		e.fusedGroup = nil
	}
}
