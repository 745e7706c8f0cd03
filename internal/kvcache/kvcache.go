// Package kvcache provides key-value cache *accounting*: the unified
// distributed pool of a cluster, which counts the token slots of every
// elastic instance and records, once, how many each request holds where.
//
// LoongServe's central memory idea (§4) is that KV tensors are managed at
// the granularity of a single token with no locality constraint: a
// request's tokens may live on any subset of instances. Baseline systems
// keep the whole-request locality constraint, which produces the
// fragmentation of Fig 4 — six free slots spread over three instances
// cannot serve a six-token request. Both disciplines are expressible here:
// unified placement via DistributedPool.PlaceSpread, locality by
// allocating a request's tokens on one instance with AllocAt.
//
// This package tracks only slot counts and placements; the actual tensor
// payloads live in internal/model.KVCache (functional layer) or are purely
// simulated (timing layer).
package kvcache

import (
	"cmp"
	"fmt"
	"slices"
)

// RequestID identifies a serving request.
type RequestID int64

// InstanceID identifies an elastic instance.
type InstanceID int

// Pool is the token-slot counter of a single elastic instance. Which
// requests hold its slots is recorded in the DistributedPool's placements.
type Pool struct {
	capacity int
	used     int
}

// Capacity returns the total slot count.
func (p *Pool) Capacity() int { return p.capacity }

// Used returns the number of occupied slots.
func (p *Pool) Used() int { return p.used }

// Free returns the number of unoccupied slots.
func (p *Pool) Free() int { return p.capacity - p.used }

// instShare is one (instance, token count) component of a request's
// placement. Requests touch few instances, so placements are stored as
// small slices: updating one is a scan and an in-place increment instead
// of an inner map assignment — the difference is measurable because every
// decode iteration allocates one slot per running request.
type instShare struct {
	id InstanceID
	n  int
}

// reqPlacement is the mutable placement record of one request: its
// non-zero shares, one per instance. Retired records are recycled through
// the pool's free list.
type reqPlacement struct {
	shares []instShare
}

func (pl *reqPlacement) idx(id InstanceID) int {
	for i := range pl.shares {
		if pl.shares[i].id == id {
			return i
		}
	}
	return -1
}

// DistributedPool is the unified distributed KV cache pool: the slot
// counters of instances 0..n-1 plus the per-request placement records,
// the only ledger of who holds what.
type DistributedPool struct {
	pools      []Pool       // indexed by InstanceID
	all        []InstanceID // 0..n-1, the subset that nil stands for
	placements map[RequestID]*reqPlacement
	plFree     []*reqPlacement // recycled placement records
	order      []instShare     // PlaceSpread scratch
}

// NewDistributedPool builds a pool set over instances 0..len-1, instance i
// holding capacities[i] token slots.
func NewDistributedPool(capacities []int) *DistributedPool {
	d := &DistributedPool{
		pools:      make([]Pool, len(capacities)),
		all:        make([]InstanceID, len(capacities)),
		placements: make(map[RequestID]*reqPlacement),
	}
	for i, c := range capacities {
		if c < 0 {
			panic(fmt.Sprintf("kvcache: negative capacity %d", c))
		}
		d.pools[i].capacity = c
		d.all[i] = InstanceID(i)
	}
	return d
}

func (d *DistributedPool) newPlacement() *reqPlacement {
	if k := len(d.plFree); k > 0 {
		pl := d.plFree[k-1]
		d.plFree[k-1] = nil
		d.plFree = d.plFree[:k-1]
		return pl
	}
	return &reqPlacement{}
}

func (d *DistributedPool) retire(r RequestID, pl *reqPlacement) {
	delete(d.placements, r)
	pl.shares = pl.shares[:0]
	d.plFree = append(d.plFree, pl)
}

// Pool returns the pool of one instance (nil if unknown).
func (d *DistributedPool) Pool(id InstanceID) *Pool {
	if id < 0 || int(id) >= len(d.pools) {
		return nil
	}
	return &d.pools[id]
}

// pool is Pool with an error naming an unknown instance.
func (d *DistributedPool) pool(id InstanceID) (*Pool, error) {
	if p := d.Pool(id); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("kvcache: unknown instance %d", id)
}

// TotalFree returns free slots summed over a subset of instances (all when
// subset is nil).
func (d *DistributedPool) TotalFree(subset []InstanceID) (int, error) {
	if subset == nil {
		subset = d.all
	}
	t := 0
	for _, id := range subset {
		p, err := d.pool(id)
		if err != nil {
			return 0, err
		}
		t += p.Free()
	}
	return t, nil
}

// TotalCapacity returns capacity summed over all instances.
func (d *DistributedPool) TotalCapacity() int {
	t := 0
	for i := range d.pools {
		t += d.pools[i].capacity
	}
	return t
}

// TotalUsed returns used slots summed over all instances.
func (d *DistributedPool) TotalUsed() int {
	t := 0
	for i := range d.pools {
		t += d.pools[i].used
	}
	return t
}

// HeldOn returns the tokens request r holds on one instance.
func (d *DistributedPool) HeldOn(r RequestID, id InstanceID) int {
	pl := d.placements[r]
	if pl == nil {
		return 0
	}
	if i := pl.idx(id); i >= 0 {
		return pl.shares[i].n
	}
	return 0
}

// EachPlacement calls f for every (instance, tokens) share of request r.
// Share order is deterministic for a given operation history but otherwise
// unspecified (partial releases compact the share list); callers must not
// mutate the pool during iteration.
func (d *DistributedPool) EachPlacement(r RequestID, f func(InstanceID, int)) {
	pl := d.placements[r]
	if pl == nil {
		return
	}
	for _, s := range pl.shares {
		f(s.id, s.n)
	}
}

// AllocAt reserves n slots for r on a specific instance. It fails without
// side effects when fewer than n slots are free there.
func (d *DistributedPool) AllocAt(r RequestID, id InstanceID, n int) error {
	p, err := d.pool(id)
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("kvcache: instance %d: negative alloc %d", id, n)
	}
	if p.Free() < n {
		return fmt.Errorf("kvcache: instance %d: alloc %d exceeds %d free", id, n, p.Free())
	}
	if n == 0 {
		return nil
	}
	p.used += n
	pl := d.placements[r]
	if pl == nil {
		pl = d.newPlacement()
		d.placements[r] = pl
	}
	if i := pl.idx(id); i >= 0 {
		pl.shares[i].n += n
	} else {
		pl.shares = append(pl.shares, instShare{id, n})
	}
	return nil
}

// PlaceSpread allocates n tokens for r across subset (all instances when
// nil) with no locality constraint, most-free-first — LoongServe's unified
// placement. On failure nothing is allocated.
func (d *DistributedPool) PlaceSpread(r RequestID, n int, subset []InstanceID) error {
	if subset == nil {
		subset = d.all
	}
	free, err := d.TotalFree(subset)
	if err != nil {
		return err
	}
	if free < n {
		return fmt.Errorf("kvcache: %d tokens exceed %d free across %d instances", n, free, len(subset))
	}
	// Most-free first, ties by ID for determinism.
	order := d.order[:0]
	for _, id := range subset {
		order = append(order, instShare{id, d.pools[id].Free()})
	}
	d.order = order
	slices.SortFunc(order, func(a, b instShare) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.id, b.id)
	})
	remaining := n
	for k := range order {
		// order[k].n becomes the tokens taken on order[k].id.
		take := min(d.pools[order[k].id].Free(), remaining)
		order[k].n = take
		if take == 0 {
			continue
		}
		if err := d.AllocAt(r, order[k].id, take); err != nil {
			// Roll back; cannot happen given the checks above, but keep the
			// pool consistent if it ever does.
			for _, s := range order[:k] {
				_ = d.ReleaseAt(r, s.id, s.n)
			}
			return err
		}
		remaining -= take
	}
	return nil
}

// ReleaseAt frees n of r's slots on one instance.
func (d *DistributedPool) ReleaseAt(r RequestID, id InstanceID, n int) error {
	p, err := d.pool(id)
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("kvcache: instance %d: negative release %d", id, n)
	}
	if have := d.HeldOn(r, id); n > have {
		return fmt.Errorf("kvcache: instance %d: release %d > held %d for request %d", id, n, have, r)
	}
	if n == 0 {
		return nil
	}
	p.used -= n
	pl := d.placements[r]
	i := pl.idx(id)
	if pl.shares[i].n -= n; pl.shares[i].n == 0 {
		last := len(pl.shares) - 1
		pl.shares[i] = pl.shares[last]
		pl.shares = pl.shares[:last]
		if last == 0 {
			d.retire(r, pl)
		}
	}
	return nil
}

// ReleaseRequest frees everything request r holds anywhere and returns the
// total freed.
func (d *DistributedPool) ReleaseRequest(r RequestID) int {
	pl := d.placements[r]
	if pl == nil {
		return 0
	}
	total := 0
	for _, s := range pl.shares {
		d.pools[s.id].used -= s.n
		total += s.n
	}
	d.retire(r, pl)
	return total
}

// Move transfers n of r's tokens from src to dst (dst must have room).
// Returns an error and changes nothing on violation.
func (d *DistributedPool) Move(r RequestID, src, dst InstanceID, n int) error {
	if _, err := d.pool(src); err != nil {
		return err
	}
	q, err := d.pool(dst)
	if err != nil {
		return err
	}
	if have := d.HeldOn(r, src); have < n {
		return fmt.Errorf("kvcache: request %d holds %d on instance %d, cannot move %d", r, have, src, n)
	}
	if q.Free() < n {
		return fmt.Errorf("kvcache: instance %d has %d free, cannot receive %d", dst, q.Free(), n)
	}
	if err := d.ReleaseAt(r, src, n); err != nil {
		return err
	}
	return d.AllocAt(r, dst, n)
}

// CheckInvariants verifies internal consistency: every placement record
// holds positive shares on distinct known instances, each instance's used
// count equals the sum of the shares placed on it, and no instance exceeds
// its capacity. It is used by tests and property checks.
func (d *DistributedPool) CheckInvariants() error {
	sums := make([]int, len(d.pools))
	for r, pl := range d.placements {
		if len(pl.shares) == 0 {
			return fmt.Errorf("kvcache: request %d has an empty placement record", r)
		}
		for i, s := range pl.shares {
			if _, err := d.pool(s.id); err != nil {
				return fmt.Errorf("kvcache: request %d: %v", r, err)
			}
			if s.n <= 0 || pl.idx(s.id) != i {
				return fmt.Errorf("kvcache: request %d has share %d on instance %d (position %d)", r, s.n, s.id, i)
			}
			sums[s.id] += s.n
		}
	}
	for id := range d.pools {
		p := &d.pools[id]
		if sums[id] != p.used {
			return fmt.Errorf("kvcache: instance %d used %d != placed sum %d", id, p.used, sums[id])
		}
		if p.used > p.capacity || p.used < 0 {
			return fmt.Errorf("kvcache: instance %d used %d out of [0, %d]", id, p.used, p.capacity)
		}
	}
	return nil
}
