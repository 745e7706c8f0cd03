package fleet

import (
	"cmp"
	"slices"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// SessionFeed drives a session workload through a gateway, emitting each
// conversation's turns as simulator events. It pulls sessions family by
// family from its source — a lazily sampled workload.SessionStream, or an
// eager script slice served as one family — and arms each session's start
// when the previous session's start fires, so the simulator holds one
// pending start at a time. Sessions must therefore start in non-decreasing
// order: the sampler's Start times are, and FeedSessions stably sorts a
// slice by simulated start time first. A streamed feed is open-loop and
// keeps only the live sessions plus one family in memory, never the whole
// workload; with Config.StreamMetrics set, a day-long million-session run
// is O(live sessions) resident.
//
// In open-loop mode turn t+1 fires Think seconds after turn t's arrival
// (the static-trace semantics); in closed-loop mode it fires Think seconds
// after turn t *completes*, so an overloaded fleet sees its own
// backpressure — the next turn cannot arrive while the previous one is
// still queued, which is what makes saturation measurements honest.
type SessionFeed struct {
	g      *Gateway
	next   func() []workload.SessionScript // the source: next family, empty once exhausted
	family []workload.SessionScript
	idx    int // next unstarted session of family
	closed bool
	byID   map[int64]*workload.SessionScript // closed loop: every session pulled so far

	total     int // turns of every session pulled so far
	emitted   int
	completed int

	// thinks holds, in closed-loop mode and ascending, the next-turn think
	// time of every in-flight request that has a next turn: its minimum is
	// the gateway's lookahead, the earliest a completion can release a turn.
	thinks []simevent.Duration

	// Trace records every emitted request in submission order; index i
	// corresponds to request ID i+1, so records can be joined back to
	// (session, turn) identities.
	Trace []workload.TimedRequest
}

// FeedSessions schedules a session-script slice onto a gateway and takes
// over its OnComplete hook. The slice is served in stable order of
// simulated start time (the caller's slice is never reordered). Call
// before running the simulator; Run runs it.
func FeedSessions(g *Gateway, scripts []workload.SessionScript, closed bool) *SessionFeed {
	// Order on the converted start, not the float Start: two floats can
	// land on the same nanosecond, and there the slice order must hold.
	byStart := func(a, b workload.SessionScript) int {
		return cmp.Compare(simevent.FromSeconds(a.Start), simevent.FromSeconds(b.Start))
	}
	if !slices.IsSortedFunc(scripts, byStart) {
		scripts = slices.Clone(scripts)
		slices.SortStableFunc(scripts, byStart)
	}
	return newSessionFeed(g, func() []workload.SessionScript {
		family := scripts
		scripts = nil
		return family
	}, closed)
}

// newSessionFeed takes over g's OnComplete hook and arms the first start.
func newSessionFeed(g *Gateway, next func() []workload.SessionScript, closed bool) *SessionFeed {
	f := &SessionFeed{g: g, next: next, closed: closed}
	if closed {
		f.byID = make(map[int64]*workload.SessionScript)
		g.lookahead = f.lookahead
	}
	g.OnComplete = f.onComplete
	f.scheduleNext()
	return f
}

// Total returns the number of requests of every session pulled so far. A
// slice feed pulls its whole workload up front; a streamed feed's total
// reaches the workload's request count once the simulation drains.
func (f *SessionFeed) Total() int { return f.total }

// Completed returns the number of finished requests.
func (f *SessionFeed) Completed() int { return f.completed }

// Run runs the gateway's loop until the workload drains, checks that
// every request completed, and returns the finalized Result with the
// feed's Trace attached. An engine OOM panic comes back as its
// *serving.ErrOOM error.
func (f *SessionFeed) Run() (*Result, error) {
	return runToEnd(f.g, "session requests", func() (int, int) { return f.completed, f.total }, &f.Trace)
}

// scheduleNext arms the start of the next unstarted session, pulling the
// next family from the source when the current one is exhausted.
func (f *SessionFeed) scheduleNext() {
	if f.idx == len(f.family) {
		f.family, f.idx = f.next(), 0
		if len(f.family) == 0 {
			return // source exhausted
		}
		for i := range f.family {
			s := &f.family[i]
			f.total += len(s.Turns)
			if f.byID != nil {
				f.byID[s.ID] = s
			}
		}
	}
	s := &f.family[f.idx]
	f.idx++
	f.g.sim.At(simevent.Time(simevent.FromSeconds(s.Start)), func() {
		if len(s.Turns) > 0 {
			f.emit(s, 0)
		}
		f.scheduleNext()
	})
}

// emit submits turn t of script s at the current simulated time and, in
// open-loop mode, chains the next turn's arrival off this one; in
// closed-loop mode the next turn's think time joins the lookahead.
func (f *SessionFeed) emit(s *workload.SessionScript, t int) {
	e := s.Entry(t)
	f.emitted++
	id := kvcache.RequestID(f.emitted)
	now := f.g.sim.Now()
	if !f.g.cfg.StreamMetrics {
		// Streaming runs drop the trace too: retaining one TimedRequest
		// (with its block-hash chain) per emitted request would rebuild
		// the O(requests) footprint the flag exists to remove, and with
		// Records gone there is nothing to join the trace back to.
		f.Trace = append(f.Trace, workload.TimedRequest{Entry: e, Arrival: time.Duration(now)})
	}
	r := &serving.Request{
		ID:        id,
		InputLen:  e.InputLen,
		OutputLen: e.OutputLen,
		Arrival:   now,
		SLOBudget: f.g.SLOBudget(e.InputLen, e.OutputLen),
	}
	f.g.Submit(r, e)
	if t+1 < len(s.Turns) {
		think := simevent.FromSeconds(s.Turns[t].Think)
		if f.closed {
			i, _ := slices.BinarySearch(f.thinks, think)
			f.thinks = slices.Insert(f.thinks, i, think)
		} else {
			f.g.sim.After(think, func() { f.emit(s, t+1) })
		}
	}
}

// onComplete is the gateway completion hook: in closed-loop mode the
// session's next turn triggers its think time from here.
func (f *SessionFeed) onComplete(e workload.Entry, _ metrics.Record) {
	f.completed++
	if !f.closed || e.SessionID == 0 {
		return
	}
	s, ok := f.byID[e.SessionID]
	if !ok {
		return
	}
	if t := e.Turn; t+1 < len(s.Turns) {
		think := simevent.FromSeconds(s.Turns[t].Think)
		i, _ := slices.BinarySearch(f.thinks, think)
		f.thinks = slices.Delete(f.thinks, i, i+1)
		f.g.sim.After(think, func() { f.emit(s, t+1) })
	}
}

// lookahead is the gateway's closed-loop lookahead: the smallest
// next-turn think time in flight, noLookahead when none is.
func (f *SessionFeed) lookahead() simevent.Duration {
	if len(f.thinks) == 0 {
		return noLookahead
	}
	return f.thinks[0]
}

// RunSessionStream replays a lazily sampled open-loop session workload
// against a fleet built from cfg.Groups — the streaming counterpart of
// RunSessionsGroups(…, closed=false), and the entry point sized for
// day-long million-session traces (pair with Config.StreamMetrics and, for
// multi-core execution, Config.Shards).
func RunSessionStream(stream *workload.SessionStream, cfg Config) (*Result, error) {
	g, err := NewGatewayGroups(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	return newSessionFeed(g, stream.Next, false).Run()
}

// RunSessions replays a session-script workload against a static fleet,
// open- or closed-loop per cfg.ClosedLoop on the workload config that
// produced the scripts (passed explicitly here as `closed`). The returned
// Result carries the emitted Trace so callers can join records back to
// session turns.
func RunSessions(spec Spec, scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	g, err := NewGateway(spec, cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	return FeedSessions(g, scripts, closed).Run()
}

// RunSessionsGroups replays a session-script workload against a static
// heterogeneous fleet built from cfg.Groups — the composition-first
// spelling of RunSessions.
func RunSessionsGroups(scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	g, err := NewGatewayGroups(cfg, simevent.New())
	if err != nil {
		return nil, err
	}
	return FeedSessions(g, scripts, closed).Run()
}
