package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/obs"
	"loongserve/internal/serving"
)

// The traced run times calls into each layer's public seams from the
// benchmark's own code: the routing policy and the replica views it
// probes, every engine's Init/Arrive and its Env.Complete callback, and
// the fleet's obs sink. Each wrapper exposes exactly the optional
// interfaces of the value it wraps, so the program takes the same paths
// traced or not; the traced run must reproduce the untraced digest.
//
// Spans are recorded for Pick/PickMigrate, Engine.Arrive and Env.Complete.
// Probes and obs emits are far more frequent, so they are only counted and
// timed. Under Shards>1 engine callbacks run on the sharded runner's
// worker goroutines, and a replica is only ever touched by one goroutine
// at a time, so every engine gets its own span log and counters; the
// policy and obs sink run on the coordinator and share one log.

type spanName uint8

const (
	spanRoute spanName = iota
	spanArrive
	spanComplete
)

var spanNames = [...]string{"route", "arrive", "complete"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the span log the span was recorded in (-1 = none).
type span struct {
	start, end int64
	req        uint64
	parent     int32
	name       spanName
	core       bool // arrive/complete on a core engine (else baselines)
}

// spanLog records spans of calls made on one goroutine at a time; open is
// the stack of calls not yet returned, which gives each span its parent.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int32
}

func (l *spanLog) begin(name spanName, req uint64, core bool) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{start: int64(time.Since(l.epoch)), req: req, parent: parent, name: name, core: core})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

func (l *spanLog) end(i int32) {
	l.spans[i].end = int64(time.Since(l.epoch))
	l.open = l.open[:len(l.open)-1]
}

// selfTimes returns each span's duration minus the part its children
// cover.
func (l *spanLog) selfTimes() []int64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// tracer owns one traced iteration's wrappers and their records.
type tracer struct {
	epoch      time.Time
	perReplica bool // engines run on worker goroutines (Shards>1)
	main       *spanLog
	engines    []*tracedEngine
	policy     *tracedPolicy
	sink       *tracedSink
}

func newTracer(shards int) *tracer {
	epoch := time.Now()
	return &tracer{epoch: epoch, perReplica: shards > 1, main: &spanLog{epoch: epoch}}
}

// wrapKind makes every engine the kind builds, its Resolve probe
// included, a traced one.
func (t *tracer) wrapKind(k *fleet.ReplicaKind) { t.wrapSpec(&k.Spec) }

func (t *tracer) wrapSpec(s *fleet.Spec) {
	build := s.NewEngine
	s.NewEngine = func() serving.Engine { return t.wrapEngine(build()) }
}

func (t *tracer) wrapSink(s obs.Sink) obs.Sink {
	t.sink = &tracedSink{inner: s}
	return t.sink
}

// tracedSink counts and times the fleet's obs emits.
type tracedSink struct {
	inner obs.Sink
	n     uint64
	ns    int64
}

// Emit implements obs.Sink.
func (s *tracedSink) Emit(e obs.Event) {
	t0 := time.Now()
	s.inner.Emit(e)
	s.ns += int64(time.Since(t0))
	s.n++
}

// tracedPolicy wraps a routing policy. The views it hands the inner
// policy count and time every probe.
type tracedPolicy struct {
	inner fleet.Policy
	mig   fleet.MigrationAware // nil unless inner implements it
	dir   fleet.DirectoryAware // nil unless inner implements it
	log   *spanLog

	views  []tracedView
	ifaces []fleet.ReplicaView

	calls   uint64
	probes  uint64
	probeNS int64
}

type migratingPolicy struct{ *tracedPolicy }
type directoryPolicy struct{ *tracedPolicy }
type migratingDirectoryPolicy struct{ *tracedPolicy }

func (p migratingPolicy) PickMigrate(req fleet.RequestInfo, replicas []fleet.ReplicaView, m fleet.Migrator) fleet.Decision {
	return p.pickMigrate(req, replicas, m)
}

func (p directoryPolicy) AttachDirectory(d *fleet.CacheDirectory) { p.dir.AttachDirectory(d) }

func (p migratingDirectoryPolicy) PickMigrate(req fleet.RequestInfo, replicas []fleet.ReplicaView, m fleet.Migrator) fleet.Decision {
	return p.pickMigrate(req, replicas, m)
}

func (p migratingDirectoryPolicy) AttachDirectory(d *fleet.CacheDirectory) {
	p.dir.AttachDirectory(d)
}

func (t *tracer) wrapPolicy(inner fleet.Policy) fleet.Policy {
	p := &tracedPolicy{inner: inner, log: t.main}
	p.mig, _ = inner.(fleet.MigrationAware)
	p.dir, _ = inner.(fleet.DirectoryAware)
	t.policy = p
	switch {
	case p.mig != nil && p.dir != nil:
		return migratingDirectoryPolicy{p}
	case p.mig != nil:
		return migratingPolicy{p}
	case p.dir != nil:
		return directoryPolicy{p}
	}
	return p
}

// Name implements fleet.Policy.
func (p *tracedPolicy) Name() string { return p.inner.Name() }

// Pick implements fleet.Policy.
func (p *tracedPolicy) Pick(req fleet.RequestInfo, replicas []fleet.ReplicaView) int {
	s := p.log.begin(spanRoute, uint64(req.ID), false)
	i := p.inner.Pick(req, p.wrapViews(replicas))
	p.log.end(s)
	p.calls++
	return i
}

func (p *tracedPolicy) pickMigrate(req fleet.RequestInfo, replicas []fleet.ReplicaView, m fleet.Migrator) fleet.Decision {
	s := p.log.begin(spanRoute, uint64(req.ID), false)
	d := p.mig.PickMigrate(req, p.wrapViews(replicas), m)
	p.log.end(s)
	p.calls++
	return d
}

// wrapViews returns the replicas behind counting views, reusing the
// wrappers across calls: views are only valid for the call they are
// handed to, as with the gateway's own view slice.
func (p *tracedPolicy) wrapViews(replicas []fleet.ReplicaView) []fleet.ReplicaView {
	if cap(p.views) < len(replicas) {
		p.views = make([]tracedView, len(replicas))
		p.ifaces = make([]fleet.ReplicaView, len(replicas))
	}
	views, ifaces := p.views[:len(replicas)], p.ifaces[:len(replicas)]
	for i, r := range replicas {
		views[i] = tracedView{inner: r, p: p}
		if loc, ok := r.(fleet.DirectoryLocator); ok {
			views[i].loc = loc
			ifaces[i] = locatedView{&views[i]}
		} else {
			ifaces[i] = &views[i]
		}
	}
	return ifaces
}

// tracedView is a counting fleet.ReplicaView.
type tracedView struct {
	inner fleet.ReplicaView
	loc   fleet.DirectoryLocator
	p     *tracedPolicy
}

// locatedView adds DirectoryLocator for views whose replica has one.
type locatedView struct{ *tracedView }

// Index implements fleet.DirectoryLocator.
func (v locatedView) Index() int { return v.loc.Index() }

func (v *tracedView) done(t0 time.Time) {
	v.p.probeNS += int64(time.Since(t0))
	v.p.probes++
}

// OutstandingTokens implements fleet.ReplicaView.
func (v *tracedView) OutstandingTokens() int {
	t0 := time.Now()
	n := v.inner.OutstandingTokens()
	v.done(t0)
	return n
}

// QueueDepth implements fleet.ReplicaView.
func (v *tracedView) QueueDepth() int {
	t0 := time.Now()
	n := v.inner.QueueDepth()
	v.done(t0)
	return n
}

// CachedTokens implements fleet.ReplicaView.
func (v *tracedView) CachedTokens(req fleet.RequestInfo) int {
	t0 := time.Now()
	n := v.inner.CachedTokens(req)
	v.done(t0)
	return n
}

// SessionTokens implements fleet.ReplicaView.
func (v *tracedView) SessionTokens(req fleet.RequestInfo) int {
	t0 := time.Now()
	n := v.inner.SessionTokens(req)
	v.done(t0)
	return n
}

// Capability implements fleet.ReplicaView.
func (v *tracedView) Capability() fleet.ReplicaCapability {
	t0 := time.Now()
	c := v.inner.Capability()
	v.done(t0)
	return c
}

// tracedEngine wraps a serving engine: Init is timed (for core that is
// the SIB profiling of the cost model), Arrive and Env.Complete are spans,
// and engine obs events are counted at AttachObsSink.
type tracedEngine struct {
	inner  serving.Engine
	log    *spanLog
	core   bool
	initNS int64
	events uint64 // engine elastic events emitted to an attached sink
}

// wrapEngine returns inner behind a tracedEngine exposing exactly inner's
// optional serving interfaces. The benchmark's engines come in two
// shapes: core implements all four, ContBatch only the reporters.
func (t *tracer) wrapEngine(inner serving.Engine) serving.Engine {
	e := &tracedEngine{
		inner: inner,
		log:   t.main,
	}
	_, e.core = inner.(*core.Engine)
	if t.perReplica {
		e.log = &spanLog{epoch: t.epoch}
	}
	t.engines = append(t.engines, e)
	lr, isLR := inner.(serving.LoadReporter)
	cr, isCR := inner.(serving.CapabilityReporter)
	tr, isTR := inner.(serving.Traceable)
	df, isDF := inner.(serving.DecodeFuser)
	switch {
	case isLR && isCR && isTR && isDF:
		return struct {
			*tracedEngine
			serving.LoadReporter
			serving.CapabilityReporter
			serving.Traceable
			serving.DecodeFuser
		}{e, lr, cr, eventCounter{e, tr}, df}
	case isLR && isCR && !isTR && !isDF:
		return struct {
			*tracedEngine
			serving.LoadReporter
			serving.CapabilityReporter
		}{e, lr, cr}
	}
	panic(fmt.Sprintf("perfbench: no traced wrapper for engine %T (LoadReporter=%v CapabilityReporter=%v Traceable=%v DecodeFuser=%v)",
		inner, isLR, isCR, isTR, isDF))
}

// Name implements serving.Engine.
func (e *tracedEngine) Name() string { return e.inner.Name() }

// Init implements serving.Engine. The engine gets a copy of env whose
// Complete callback is a span around the caller's.
func (e *tracedEngine) Init(env *serving.Env) error {
	wrapped := *env
	complete := env.Complete
	wrapped.Complete = func(r *serving.Request) {
		s := e.log.begin(spanComplete, uint64(r.ID), e.core)
		complete(r)
		e.log.end(s)
	}
	t0 := time.Now()
	err := e.inner.Init(&wrapped)
	e.initNS += int64(time.Since(t0))
	return err
}

// Arrive implements serving.Engine.
func (e *tracedEngine) Arrive(r *serving.Request) {
	s := e.log.begin(spanArrive, uint64(r.ID), e.core)
	e.inner.Arrive(r)
	e.log.end(s)
}

// eventCounter is a traced engine's serving.Traceable: it counts the
// engine's events on their way into the attached sink.
type eventCounter struct {
	e     *tracedEngine
	inner serving.Traceable
}

// AttachObsSink implements serving.Traceable. A nil sink detaches, as it
// does on the engine.
func (c eventCounter) AttachObsSink(sink obs.Sink, replica int) {
	if sink != nil {
		sink = &countingSink{inner: sink, n: &c.e.events}
	}
	c.inner.AttachObsSink(sink, replica)
}

type countingSink struct {
	inner obs.Sink
	n     *uint64
}

// Emit implements obs.Sink.
func (s *countingSink) Emit(e obs.Event) {
	*s.n++
	s.inner.Emit(e)
}

// discardSink drops every event.
type discardSink struct{}

// Emit implements obs.Sink.
func (discardSink) Emit(obs.Event) {}

// logs returns every span log of the iteration, the shared one first.
func (t *tracer) logs() []*spanLog {
	logs := []*spanLog{t.main}
	if t.perReplica {
		for _, e := range t.engines {
			logs = append(logs, e.log)
		}
	}
	return logs
}

// spanTotals sums self time and counts spans by name and engine layer.
type spanTotals struct {
	n    [len(spanNames)]uint64
	self [len(spanNames)]int64
	// arrive self time split by engine layer
	coreArrive, baselinesArrive int64
}

func (t *tracer) totals() spanTotals {
	var st spanTotals
	for _, l := range t.logs() {
		self := l.selfTimes()
		for i, s := range l.spans {
			st.n[s.name]++
			st.self[s.name] += self[i]
			if s.name == spanArrive {
				if s.core {
					st.coreArrive += self[i]
				} else {
					st.baselinesArrive += self[i]
				}
			}
		}
	}
	return st
}

// writeSpans writes every span as one JSON object per line; parent
// indexes are rebased onto the concatenated output.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := int32(0)
	for _, l := range t.logs() {
		for _, s := range l.spans {
			parent := s.parent
			if parent >= 0 {
				parent += base
			}
			fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
				spanNames[s.name], s.start, s.end, parent, s.req)
		}
		base += int32(len(l.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
