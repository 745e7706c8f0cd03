package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"loongserve/internal/fleet"
	"loongserve/internal/metrics"
	"loongserve/internal/obs"
	"loongserve/internal/obs/analyze"
)

// The correctness gate compares result digests: one hash over everything
// observable about a finished simulation. Two runs with equal digests
// produced the same simulated results, so a perf change that alters what
// the simulator computes cannot pass as a speed-up.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// streamDigest is an O(1)-memory obs.Sink: an order-sensitive FNV-1a fold
// over every field of every event.
type streamDigest struct {
	h uint64
	n uint64
}

func newStreamDigest() *streamDigest { return &streamDigest{h: fnvOffset} }

func (d *streamDigest) mix(v uint64) { d.h = (d.h ^ v) * fnvPrime }

// Emit implements obs.Sink.
func (d *streamDigest) Emit(e obs.Event) {
	d.n++
	d.mix(uint64(e.At))
	d.mix(uint64(e.Kind))
	d.mix(uint64(int64(e.Replica)))
	d.mix(uint64(int64(e.Group)))
	d.mix(uint64(e.Session))
	d.mix(uint64(e.Request))
	d.mix(uint64(int64(e.Tokens)))
	d.mix(uint64(e.A))
	d.mix(uint64(e.B))
	for i := 0; i < len(e.Label); i++ {
		d.mix(uint64(e.Label[i]))
	}
	d.mix(0x9e3779b97f4a7c15) // event separator
}

// auditSink tees the fleet's event stream into the online invariant
// auditor and a stream digest.
type auditSink struct {
	aud *analyze.Auditor
	dig *streamDigest
}

func newAuditSink() *auditSink {
	return &auditSink{aud: analyze.NewAuditor(), dig: newStreamDigest()}
}

// Emit implements obs.Sink.
func (s *auditSink) Emit(e obs.Event) {
	s.aud.Emit(e)
	s.dig.Emit(e)
}

// fleetDigest folds a fleet result: makespan, metrics summary, per-replica
// accounting, migration/cold-tier/fault/hedge stats and the derived
// ratios. The simulator event count is left out on purpose: decode fusion
// changes it without changing any simulated result.
func fleetDigest(res *fleet.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%+v|%+v|%+v|%+v|%+v|%+v|%v|%v",
		res.End, res.Summary(), res.Replicas, res.Migrations, res.Cold, res.Faults, res.Hedge,
		res.TokenHitRatio(), res.Goodput())
	return h.Sum64()
}

// recordsDigest folds a single-engine run: every completion record in
// completion order, then the summary and goodput.
func recordsDigest(recs []metrics.Record) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%d,%d,%d,%d,%d,%d,%d;", r.ID, r.InputLen, r.OutputLen,
			r.Arrival, r.FirstToken, r.Finish, r.SLOBudget)
	}
	fmt.Fprintf(h, "|%+v|%v", metrics.Summarize(recs), metrics.Goodput(recs))
	return h.Sum64()
}

// withStream extends a result digest with an event-stream digest.
func withStream(digest uint64, s *streamDigest) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%x|%d", digest, s.h, s.n)
	return h.Sum64()
}

// makespan returns the last completion time of a record set.
func makespan(recs []metrics.Record) time.Duration {
	var end time.Duration
	for _, r := range recs {
		if r.Finish > end {
			end = r.Finish
		}
	}
	return end
}
