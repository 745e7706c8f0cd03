package fleet

import (
	"fmt"
	"time"

	"loongserve/internal/kvcache"
	"loongserve/internal/metrics"
	"loongserve/internal/serving"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// SessionFeed drives a session-script workload through a gateway, emitting
// each conversation's turns as simulator events. In open-loop mode turn
// t+1 fires Think seconds after turn t's arrival (the static-trace
// semantics); in closed-loop mode it fires Think seconds after turn t
// *completes*, so an overloaded fleet sees its own backpressure — the next
// turn cannot arrive while the previous one is still queued, which is what
// makes saturation measurements honest.
type SessionFeed struct {
	g       *Gateway
	scripts []workload.SessionScript
	byID    map[int64]*workload.SessionScript
	closed  bool

	total     int
	emitted   int
	completed int

	// Trace records every emitted request in submission order; index i
	// corresponds to request ID i+1, so records can be joined back to
	// (session, turn) identities.
	Trace []workload.TimedRequest
}

// FeedSessions schedules a session workload onto a gateway and takes over
// its OnComplete hook. Call before running the simulator.
func FeedSessions(g *Gateway, scripts []workload.SessionScript, closed bool) *SessionFeed {
	f := &SessionFeed{
		g:       g,
		scripts: scripts,
		byID:    make(map[int64]*workload.SessionScript, len(scripts)),
		closed:  closed,
		total:   workload.NumRequests(scripts),
	}
	for i := range scripts {
		s := &scripts[i]
		f.byID[s.ID] = s
		if len(s.Turns) == 0 {
			continue
		}
		start := simevent.Time(simevent.FromSeconds(s.Start))
		g.sim.Stage(start, func() { f.emit(s, 0) })
	}
	g.OnComplete = f.onComplete
	return f
}

// Total returns the number of requests the feed will emit.
func (f *SessionFeed) Total() int { return f.total }

// Completed returns the number of finished requests.
func (f *SessionFeed) Completed() int { return f.completed }

// emit submits turn t of script s at the current simulated time and, in
// open-loop mode, chains the next turn's arrival off this one.
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
	if !f.closed && t+1 < len(s.Turns) {
		f.g.sim.After(simevent.FromSeconds(s.Turns[t].Think), func() { f.emit(s, t+1) })
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
		f.g.sim.After(simevent.FromSeconds(s.Turns[t].Think), func() { f.emit(s, t+1) })
	}
}

// StreamFeed drives a lazily sampled session workload (workload.StreamSessions)
// through a gateway, open-loop. It pulls one branching family from the
// stream at a time and schedules the next session's start when the current
// one starts — sound because the sampler's Start times are non-decreasing —
// so memory holds only the live sessions plus one family, never the whole
// workload. With Config.StreamMetrics set, a day-long million-session run
// is O(live sessions) resident.
type StreamFeed struct {
	g      *Gateway
	stream *workload.SessionStream
	family []workload.SessionScript
	idx    int

	total     int // turns of every session pulled so far
	emitted   int
	completed int

	// Trace mirrors SessionFeed.Trace (dropped under StreamMetrics).
	Trace []workload.TimedRequest
}

// FeedSessionStream schedules a lazy session workload onto a gateway and
// takes over its OnComplete hook. Call before running the simulator.
func FeedSessionStream(g *Gateway, stream *workload.SessionStream) *StreamFeed {
	f := &StreamFeed{g: g, stream: stream}
	g.OnComplete = func(workload.Entry, metrics.Record) { f.completed++ }
	f.scheduleNext()
	return f
}

// Total returns the number of requests of every session pulled so far; once
// the simulation drains it equals the whole workload's request count.
func (f *StreamFeed) Total() int { return f.total }

// Completed returns the number of finished requests.
func (f *StreamFeed) Completed() int { return f.completed }

// scheduleNext arms the start of the next unstarted session, pulling the
// next family from the stream when the current one is exhausted.
func (f *StreamFeed) scheduleNext() {
	if f.idx == len(f.family) {
		f.family = f.stream.Next()
		f.idx = 0
		if len(f.family) == 0 {
			return // stream exhausted
		}
		for i := range f.family {
			f.total += len(f.family[i].Turns)
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

// emit submits turn t of script s now and chains the next turn open-loop.
func (f *StreamFeed) emit(s *workload.SessionScript, t int) {
	e := s.Entry(t)
	f.emitted++
	id := kvcache.RequestID(f.emitted)
	now := f.g.sim.Now()
	if !f.g.cfg.StreamMetrics {
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
		f.g.sim.After(simevent.FromSeconds(s.Turns[t].Think), func() { f.emit(s, t+1) })
	}
}

// RunSessionStream replays a lazily sampled open-loop session workload
// against a fleet built from cfg.Groups — the streaming counterpart of
// RunSessionsGroups(…, closed=false), and the entry point sized for
// day-long million-session traces (pair with Config.StreamMetrics and, for
// multi-core execution, Config.Shards).
func RunSessionStream(stream *workload.SessionStream, cfg Config) (*Result, error) {
	sim := simevent.New()
	g, err := NewGatewayGroups(cfg, sim)
	if err != nil {
		return nil, err
	}
	feed := FeedSessionStream(g, stream)
	return runToEnd(g, "streamed session requests", func() (int, int) { return feed.Completed(), feed.Total() }, &feed.Trace)
}

// RunSessions replays a session-script workload against a static fleet,
// open- or closed-loop per cfg.ClosedLoop on the workload config that
// produced the scripts (passed explicitly here as `closed`). The returned
// Result carries the emitted Trace so callers can join records back to
// session turns.
func RunSessions(spec Spec, scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	sim := simevent.New()
	g, err := NewGateway(spec, cfg, sim)
	if err != nil {
		return nil, err
	}
	return runSessions(g, sim, scripts, closed)
}

// RunSessionsGroups replays a session-script workload against a static
// heterogeneous fleet built from cfg.Groups — the composition-first
// spelling of RunSessions.
func RunSessionsGroups(scripts []workload.SessionScript, cfg Config, closed bool) (*Result, error) {
	sim := simevent.New()
	g, err := NewGatewayGroups(cfg, sim)
	if err != nil {
		return nil, err
	}
	return runSessions(g, sim, scripts, closed)
}

// runSessions feeds the scripts, runs the simulator to completion and
// finalizes, converting engine OOM panics to errors.
func runSessions(g *Gateway, sim *simevent.Sim, scripts []workload.SessionScript, closed bool) (*Result, error) {
	if g.shard != nil && closed {
		// A closed-loop feed schedules the next turn at completion time with
		// zero lookahead, so no gateway timestamp bounds future engine
		// interactions — the window invariant the sharded runner rests on.
		return nil, fmt.Errorf("fleet: closed-loop session feeds cannot run sharded (Shards=%d); use an open-loop feed or Shards=0", g.cfg.Shards)
	}
	feed := FeedSessions(g, scripts, closed)
	return runToEnd(g, "session requests", func() (int, int) { return feed.Completed(), feed.Total() }, &feed.Trace)
}
