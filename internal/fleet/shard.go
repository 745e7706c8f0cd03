package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"loongserve/internal/obs"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
)

// The fleet's simulation loop: conservative time-window synchronization.
//
// Every run, at every Config.Shards value, goes through this runner. The
// gateway owns one simevent heap and every replica engine another, private
// one; the runner exploits the fleet's causality structure:
//
//   - Replicas share nothing: an engine event can only read or write its
//     own replica's cluster, pool, cost model and request state.
//   - Every gateway→engine interaction (Arrive, Load) happens inside a
//     gateway event — a route, a hedge launch, a stall release, a fault, a
//     sampler tick, an autoscaler tick — or inside completion replay at
//     the barrier.
//   - Every gateway event's timestamp is known before a window opens, or
//     follows a completion by at least the lookahead λ. Arrivals are
//     staged or chained off earlier arrivals, hedge timers arm at delivery,
//     faults are pre-staged, migration/stall/cold-fetch and warm-up timers
//     arm inside gateway events. A closed-loop feed's next turn fires its
//     think time after a completion, so λ is the smallest next-turn think
//     time among the requests in flight when the window opens
//     (Gateway.lookahead, kept by the SessionFeed); an open-loop feed has
//     λ = ∞.
//
// So with W the next gateway timestamp and H the earliest pending replica
// event, every replica may advance its private heap through everything
// strictly before the window bound min(W, H + max(λ, 1ns)), in parallel,
// with no shared state: a completion at c >= H can only submit work at a
// gateway event at c + λ or later. (With λ = 0 the window is the instant
// H, and the turns it releases fire after the replica events at H.) At the
// barrier, buffered engine output — completions and obs events — replays
// into the gateway in the canonical merge order (time, replica index,
// per-replica emission order). A completion may schedule gateway work
// that touches no engine (a drain handoff landing); replay fires whatever
// of it falls due before the next buffered entry, so the gateway clock
// only moves forward. When the window reached W, the gateway fires exactly
// one event there with every replica clock synced to W, and the loop
// repeats.
//
// Determinism: the window bounds depend only on global simulated state,
// the parallel phase touches no shared state, and the merge order is
// independent of how replicas are partitioned over workers, so every
// shard count produces byte-identical output to the serial run (Shards 0
// or 1) — the argument the parallel experiment arms rest on, one level
// deeper. Replicas provisioned mid-run (AddReplicaKind) join at a
// barrier with a private heap already at the gateway's clock.

// noLookahead is the lookahead of a feed whose completions release no
// gateway work: the window bound is the next gateway event.
const noLookahead = simevent.Duration(math.MaxInt64)

// timeInf is the advance bound once the gateway has no pending events.
const timeInf = simevent.Time(math.MaxInt64)

// shardEntry is one unit of buffered engine output: an obs event, or a
// request completion (req != nil) to replay through Gateway.complete.
type shardEntry struct {
	at  simevent.Time
	ev  obs.Event
	req *serving.Request
}

// shardBuf collects one replica's engine output during the parallel phase.
// It implements obs.Sink (as the inner sink of the replica's gatedSink, so
// crash gating keeps working unchanged) and receives completions via the
// replica's Env.Complete. Only the replica's worker touches it between
// barriers; only the coordinator touches it at the barrier.
type shardBuf struct {
	entries []shardEntry
}

// Emit implements obs.Sink.
func (b *shardBuf) Emit(e obs.Event) {
	b.entries = append(b.entries, shardEntry{at: e.At, ev: e})
}

func (b *shardBuf) complete(at simevent.Time, r *serving.Request) {
	b.entries = append(b.entries, shardEntry{at: at, req: r})
}

func (b *shardBuf) reset() {
	for i := range b.entries {
		b.entries[i] = shardEntry{}
	}
	b.entries = b.entries[:0]
}

// mergeRef addresses one buffered entry during the barrier merge.
type mergeRef struct {
	at       simevent.Time
	rep, idx int32
}

// shardRunner drives a fleet run.
type shardRunner struct {
	g       *Gateway
	workers int // Config.Shards, at least 1

	advancedTo simevent.Time // replicas have drained strictly below this
	merged     []mergeRef    // barrier merge scratch

	// Worker pool (workers > 1): persistent goroutines; while a window
	// runs, replica i is handled by worker i%active, active being the
	// pool size capped at the replica count. bound and active are written
	// by the coordinator before the start signals and read by workers
	// after them (channel happens-before), so the replica set may grow
	// between windows.
	bound  simevent.Time
	active int
	start  []chan struct{}
	wg     sync.WaitGroup
	panics []any
}

func newShardRunner(g *Gateway, workers int) *shardRunner {
	return &shardRunner{g: g, workers: max(workers, 1)}
}

// run executes the whole simulation: every gateway and replica event, in
// windows, until no event is pending anywhere.
func (s *shardRunner) run() {
	if s.workers > 1 && s.start == nil {
		s.start = make([]chan struct{}, s.workers)
		s.panics = make([]any, s.workers)
		for w := range s.start {
			s.start[w] = make(chan struct{}, 1)
			go s.worker(w, s.start[w])
		}
	}
	defer s.stop()
	for {
		w, ok := s.g.sim.Head()
		if !ok {
			w = timeInf
		}
		bound := w
		if s.g.lookahead != nil {
			if la := s.g.lookahead(); la != noLookahead {
				if h, busy := s.replicaHead(); busy && h < w {
					bound = min(w, h.Add(max(la, 1)))
				}
			}
		}
		if bound > s.advancedTo {
			s.advance(bound)
			s.advancedTo = bound
		}
		if s.replay() {
			continue // completions < bound must land before the event at bound
		}
		if bound < w {
			continue // a lookahead window closed short of the next gateway event
		}
		if !ok {
			return // every replica drained and nothing surfaced
		}
		// Barrier: sync every replica clock to W, then fire exactly one
		// gateway event there. Anything it injects into an engine lands at
		// the engine's present, so replicas hold nothing below W.
		for _, rep := range s.g.replicas {
			rep.env.Sim.AdvanceTo(w)
		}
		s.stepGateway()
		s.advancedTo = w
	}
}

// stepGateway fires the gateway's next event, enforcing MaxEvents on the
// gateway heap as Sim.Run would (replica heaps enforce their own in
// RunBefore), so a control loop that ticks forever still fails.
func (s *shardRunner) stepGateway() {
	sim := s.g.sim
	if sim.MaxEvents > 0 && sim.Fired() >= sim.MaxEvents {
		panic(fmt.Sprintf("simevent: exceeded MaxEvents=%d at t=%v", sim.MaxEvents, sim.Now()))
	}
	sim.Step()
}

// replicaHead returns the earliest pending event across every replica
// heap; busy=false when every replica is idle.
func (s *shardRunner) replicaHead() (h simevent.Time, busy bool) {
	h = timeInf
	for _, rep := range s.g.replicas {
		if t, ok := rep.env.Sim.Head(); ok && t < h {
			h, busy = t, true
		}
	}
	return h, busy
}

// advance runs every replica's private heap through all events strictly
// before bound — the parallel phase.
func (s *shardRunner) advance(bound simevent.Time) {
	work := false
	for _, rep := range s.g.replicas {
		if h, ok := rep.env.Sim.Head(); ok && h < bound {
			work = true
			break
		}
	}
	if !work {
		return
	}
	s.active = min(s.workers, len(s.g.replicas))
	if s.active <= 1 {
		for _, rep := range s.g.replicas {
			rep.env.Sim.RunBefore(bound)
		}
		return
	}
	s.bound = bound
	s.wg.Add(s.active)
	for _, ch := range s.start[:s.active] {
		ch <- struct{}{}
	}
	s.wg.Wait()
	for w, p := range s.panics {
		if p != nil {
			s.panics[w] = nil
			panic(p)
		}
	}
}

// worker advances its replica partition each time the coordinator signals.
func (s *shardRunner) worker(w int, start <-chan struct{}) {
	for range start {
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.panics[w] = p
				}
				s.wg.Done()
			}()
			reps := s.g.replicas
			for i := w; i < len(reps); i += s.active {
				reps[i].env.Sim.RunBefore(s.bound)
			}
		}()
	}
}

// stop shuts the worker pool down.
func (s *shardRunner) stop() {
	for _, ch := range s.start {
		close(ch)
	}
	s.start = nil
}

// compareMerge is the canonical barrier merge order: time, replica index,
// per-replica emission order.
func compareMerge(a, b mergeRef) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.rep != b.rep {
		return cmp.Compare(a.rep, b.rep)
	}
	return cmp.Compare(a.idx, b.idx)
}

// replay drains every replica's buffer into the gateway in the canonical
// merge order: obs events re-emit to the run's sink, completions process
// through Gateway.complete with the gateway clock advanced to the
// completion instant. Gateway events a completion scheduled that fall due
// before the next entry fire first, in time order. Reports whether
// anything replayed (completion processing can schedule new gateway
// events, so the caller must recompute its window).
func (s *shardRunner) replay() bool {
	merged := s.merged[:0]
	for ri, rep := range s.g.replicas {
		for ei := range rep.buf.entries {
			merged = append(merged, mergeRef{at: rep.buf.entries[ei].at, rep: int32(ri), idx: int32(ei)})
		}
	}
	s.merged = merged
	if len(merged) == 0 {
		return false
	}
	slices.SortFunc(merged, compareMerge)
	completed := false // gateway events can fall due only after a completion
	for _, m := range merged {
		if completed {
			for h, ok := s.g.sim.Head(); ok && h < m.at; h, ok = s.g.sim.Head() {
				s.stepGateway()
			}
		}
		rep := s.g.replicas[m.rep]
		en := &rep.buf.entries[m.idx]
		if en.req != nil {
			s.g.sim.AdvanceTo(en.at)
			s.g.complete(rep, en.req)
			completed = true
		} else {
			s.g.obsSink.Emit(en.ev)
		}
	}
	for _, rep := range s.g.replicas {
		rep.buf.reset()
	}
	return true
}

// pendingWork counts pending events across the gateway heap and every
// replica's private heap: the sampler's "is the run still alive" signal.
func (g *Gateway) pendingWork() int {
	n := g.sim.Pending()
	for _, rep := range g.replicas {
		n += rep.env.Sim.Pending()
	}
	return n
}
