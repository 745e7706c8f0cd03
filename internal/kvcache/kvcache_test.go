package kvcache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// newPoolOf builds a distributed pool over instances 0..len(caps)-1.
func newPoolOf(caps []int) *DistributedPool { return NewDistributedPool(caps) }

// spread places n tokens of r across every instance.
func spread(d *DistributedPool, r RequestID, n int) error { return d.PlaceSpread(r, n, nil) }

// heldBy returns the tokens r holds across the cluster.
func heldBy(d *DistributedPool, r RequestID) int {
	t := 0
	d.EachPlacement(r, func(_ InstanceID, n int) { t += n })
	return t
}

func TestPoolAllocRelease(t *testing.T) {
	d := NewDistributedPool([]int{10})
	p := d.Pool(0)
	if p.Capacity() != 10 || p.Free() != 10 || p.Used() != 0 {
		t.Fatalf("fresh pool wrong: cap=%d free=%d used=%d", p.Capacity(), p.Free(), p.Used())
	}
	if err := d.AllocAt(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.AllocAt(2, 0, 6); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 0 {
		t.Fatalf("free %d, want 0", p.Free())
	}
	if err := d.AllocAt(3, 0, 1); err == nil {
		t.Fatal("overflow alloc succeeded")
	}
	if err := d.ReleaseAt(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if d.HeldOn(1, 0) != 2 || p.Free() != 2 {
		t.Fatalf("after partial release: held=%d free=%d", d.HeldOn(1, 0), p.Free())
	}
	if err := d.ReleaseAt(1, 0, 3); err == nil {
		t.Fatal("over-release succeeded")
	}
	if n := d.ReleaseRequest(2); n != 6 {
		t.Fatalf("ReleaseRequest freed %d, want 6", n)
	}
	if p.Free() != 8 {
		t.Fatalf("free %d, want 8", p.Free())
	}
}

func TestPoolZeroAllocNoHold(t *testing.T) {
	d := NewDistributedPool([]int{5})
	if err := d.AllocAt(7, 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(d.placements) != 0 {
		t.Fatal("zero alloc created a placement record")
	}
}

func TestPoolNegativeAllocRejected(t *testing.T) {
	d := NewDistributedPool([]int{5})
	if err := d.AllocAt(1, 0, -1); err == nil {
		t.Fatal("negative alloc accepted")
	}
	if err := d.ReleaseAt(1, 0, -1); err == nil {
		t.Fatal("negative release accepted")
	}
}

func newTestPool() *DistributedPool {
	return NewDistributedPool([]int{10, 10, 10})
}

// Fig 4 of the paper: six free slots spread across three instances (two
// each) cannot serve a six-token request under the locality constraint, but
// the unified distributed pool can.
func TestFig4FragmentationExample(t *testing.T) {
	d := NewDistributedPool([]int{2, 2, 2})
	for id := InstanceID(0); id < 3; id++ {
		if f := d.Pool(id).Free(); f >= 6 {
			t.Fatalf("instance %d has %d free: one instance fits the request", id, f)
		}
	}
	if err := d.PlaceSpread(42, 6, nil); err != nil {
		t.Fatalf("unified placement refused 6 tokens over 6 free slots: %v", err)
	}
	for id := InstanceID(0); id < 3; id++ {
		if got := d.HeldOn(42, id); got != 2 {
			t.Fatalf("instance %d holds %d tokens, want 2", id, got)
		}
		if err := d.AllocAt(43, id, 1); err == nil {
			t.Fatalf("pool is full; AllocAt on instance %d should fail", id)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceSpreadMostFreeFirst(t *testing.T) {
	d := newTestPool()
	// Pre-fill instance 0 so it has least free.
	if err := d.AllocAt(1, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := d.PlaceSpread(2, 12, nil); err != nil {
		t.Fatal(err)
	}
	// Instance 1 (10 free, lower id than 2) is filled first, then 2; the
	// least-free instance 0 receives nothing.
	if d.HeldOn(2, 0) != 0 || d.HeldOn(2, 1) != 10 || d.HeldOn(2, 2) != 2 {
		t.Fatalf("placement (%d, %d, %d), want (0, 10, 2)", d.HeldOn(2, 0), d.HeldOn(2, 1), d.HeldOn(2, 2))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceSpreadRejectsWhenFull(t *testing.T) {
	d := newTestPool()
	if err := d.PlaceSpread(1, 31, nil); err == nil {
		t.Fatal("over-capacity spread succeeded")
	}
	if d.TotalUsed() != 0 {
		t.Fatal("failed placement leaked slots")
	}
}

func TestPlaceSpreadSubset(t *testing.T) {
	d := newTestPool()
	if err := d.PlaceSpread(1, 15, []InstanceID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if d.HeldOn(1, 2) != 0 {
		t.Fatal("placement escaped the subset")
	}
	if got := d.HeldOn(1, 0) + d.HeldOn(1, 1); got != 15 {
		t.Fatalf("subset placement total %d", got)
	}
}

func TestHeldByAndRelease(t *testing.T) {
	d := newTestPool()
	if err := d.PlaceSpread(7, 25, nil); err != nil {
		t.Fatal(err)
	}
	if heldBy(d, 7) != 25 {
		t.Fatalf("held %d, want 25", heldBy(d, 7))
	}
	freed := d.ReleaseRequest(7)
	if freed != 25 || d.TotalUsed() != 0 {
		t.Fatalf("freed %d, used %d", freed, d.TotalUsed())
	}
	if heldBy(d, 7) != 0 {
		t.Fatal("tokens held after release")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAtPartial(t *testing.T) {
	d := newTestPool()
	if err := d.AllocAt(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.ReleaseAt(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if heldBy(d, 1) != 3 || d.Pool(0).Free() != 7 {
		t.Fatalf("held %d free %d", heldBy(d, 1), d.Pool(0).Free())
	}
	if err := d.ReleaseAt(1, 0, 10); err == nil {
		t.Fatal("over-release accepted")
	}
}

func TestMoveTokens(t *testing.T) {
	d := newTestPool()
	if err := d.AllocAt(1, 0, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 0, 2, 4); err != nil {
		t.Fatal(err)
	}
	if d.HeldOn(1, 0) != 2 || d.HeldOn(1, 2) != 4 {
		t.Fatalf("placement after move: %d on 0, %d on 2", d.HeldOn(1, 0), d.HeldOn(1, 2))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Moving more than held fails cleanly.
	if err := d.Move(1, 0, 2, 5); err == nil {
		t.Fatal("over-move accepted")
	}
	// Moving into a full instance fails cleanly.
	if err := d.AllocAt(2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 0, 1, 1); err == nil {
		t.Fatal("move into full instance accepted")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Every operation that names an instance the pool does not have returns
// the unknown-instance error and changes nothing; none of them panics.
func TestUnknownInstanceErrors(t *testing.T) {
	d := newTestPool()
	if err := d.AllocAt(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	bad := []InstanceID{0, 3}
	_, totalErr := d.TotalFree(bad)
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"AllocAt", d.AllocAt(1, 99, 1), "kvcache: unknown instance 99"},
		{"ReleaseAt", d.ReleaseAt(1, 99, 1), "kvcache: unknown instance 99"},
		{"Move to an unknown dst", d.Move(1, 0, 3, 2), "kvcache: unknown instance 3"},
		{"Move from an unknown src", d.Move(1, -1, 0, 0), "kvcache: unknown instance -1"},
		{"PlaceSpread", d.PlaceSpread(2, 1, bad), "kvcache: unknown instance 3"},
		{"TotalFree", totalErr, "kvcache: unknown instance 3"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: err %v, want %q", c.name, c.err, c.want)
		}
	}
	if d.Pool(3) != nil || d.Pool(-1) != nil {
		t.Error("Pool returned a pool for an unknown instance")
	}
	if d.HeldOn(1, 0) != 4 || d.TotalUsed() != 4 {
		t.Fatalf("a rejected operation changed the pool: held %d, used %d", d.HeldOn(1, 0), d.TotalUsed())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ledgerModel is the naive reference the pool is checked against: tokens
// per (request, instance), with no indexing or recycling.
type ledgerModel struct {
	caps []int
	held map[[2]int64]int
}

func (m *ledgerModel) get(r RequestID, id InstanceID) int {
	return m.held[[2]int64{int64(r), int64(id)}]
}

func (m *ledgerModel) add(r RequestID, id InstanceID, n int) {
	k := [2]int64{int64(r), int64(id)}
	if m.held[k] += n; m.held[k] == 0 {
		delete(m.held, k)
	}
}

func (m *ledgerModel) used(id InstanceID) int {
	t := 0
	for k, n := range m.held {
		if k[1] == int64(id) {
			t += n
		}
	}
	return t
}

func (m *ledgerModel) free(id InstanceID) int { return m.caps[id] - m.used(id) }

func (m *ledgerModel) heldBy(r RequestID) int {
	t := 0
	for id := range m.caps {
		t += m.get(r, InstanceID(id))
	}
	return t
}

// spread applies unified placement to the model: most-free first, ties
// toward the lower ID. It reports false (changing nothing) when n tokens
// exceed the total free.
func (m *ledgerModel) spread(r RequestID, n int) bool {
	order := make([]InstanceID, len(m.caps))
	total := 0
	for i := range order {
		order[i] = InstanceID(i)
		total += m.free(InstanceID(i))
	}
	if total < n {
		return false
	}
	sort.SliceStable(order, func(i, j int) bool { return m.free(order[i]) > m.free(order[j]) })
	for _, id := range order {
		take := min(m.free(id), n)
		m.add(r, id, take)
		n -= take
	}
	return true
}

// check compares the pool with the model on every observable: per-instance
// free slots, total use, and each live request's per-instance holdings, read
// both one instance at a time and through EachPlacement.
func (m *ledgerModel) check(d *DistributedPool, live []RequestID) error {
	if err := d.CheckInvariants(); err != nil {
		return err
	}
	total := 0
	for i := range m.caps {
		id := InstanceID(i)
		total += m.used(id)
		if got, want := d.Pool(id).Free(), m.free(id); got != want {
			return fmt.Errorf("instance %d: Free %d, model %d", id, got, want)
		}
	}
	if got := d.TotalUsed(); got != total {
		return fmt.Errorf("TotalUsed %d, model %d", got, total)
	}
	for _, r := range live {
		for i := range m.caps {
			if got, want := d.HeldOn(r, InstanceID(i)), m.get(r, InstanceID(i)); got != want {
				return fmt.Errorf("request %d instance %d: HeldOn %d, model %d", r, i, got, want)
			}
		}
		seen := map[InstanceID]bool{}
		var err error
		d.EachPlacement(r, func(id InstanceID, n int) {
			if seen[id] || n <= 0 || n != m.get(r, id) {
				err = fmt.Errorf("request %d: EachPlacement yields (%d, %d), model %d", r, id, n, m.get(r, id))
			}
			seen[id] = true
		})
		if err != nil {
			return err
		}
		for i := range m.caps {
			if m.get(r, InstanceID(i)) > 0 && !seen[InstanceID(i)] {
				return fmt.Errorf("request %d: EachPlacement skips instance %d", r, i)
			}
		}
	}
	return nil
}

// Property: any random sequence of spread placements, single-instance
// allocations, partial and full releases, moves and rejected operations
// keeps the pool equal to a naive per-(request, instance) model, never
// leaking or double-freeing a slot.
func TestPropertyPoolInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		caps := make([]int, rng.Intn(5)+1)
		for i := range caps {
			caps[i] = rng.Intn(40)
		}
		d := newPoolOf(caps)
		m := &ledgerModel{caps: caps, held: map[[2]int64]int{}}
		var live []RequestID
		next := RequestID(1)
		// pick returns a live request and one instance it holds tokens on.
		pick := func() (int, RequestID, InstanceID, bool) {
			if len(live) == 0 {
				return 0, 0, 0, false
			}
			k := rng.Intn(len(live))
			var ids []InstanceID
			d.EachPlacement(live[k], func(id InstanceID, _ int) { ids = append(ids, id) })
			return k, live[k], ids[rng.Intn(len(ids))], true
		}
		drop := func(k int) {
			if m.heldBy(live[k]) == 0 {
				live = append(live[:k], live[k+1:]...)
			}
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(6) {
			case 0: // spread place
				n := rng.Intn(30)
				fits := m.spread(next, n)
				if err := spread(d, next, n); (err == nil) != fits {
					t.Logf("op %d: spread %d: err %v, model fits %v", op, n, err, fits)
					return false
				}
				if fits && n > 0 {
					live = append(live, next)
				}
				next++
			case 1: // allocate on one instance
				n, id := rng.Intn(20), InstanceID(rng.Intn(len(caps)))
				fits := m.free(id) >= n
				if err := d.AllocAt(next, id, n); (err == nil) != fits {
					t.Logf("op %d: AllocAt(%d, %d): err %v, model fits %v", op, id, n, err, fits)
					return false
				}
				if fits && n > 0 {
					m.add(next, id, n)
					live = append(live, next)
				}
				next++
			case 2: // release a whole request
				if k, r, _, ok := pick(); ok {
					if got, want := d.ReleaseRequest(r), m.heldBy(r); got != want {
						t.Logf("op %d: ReleaseRequest(%d) freed %d, model %d", op, r, got, want)
						return false
					}
					for i := range caps {
						m.add(r, InstanceID(i), -m.get(r, InstanceID(i)))
					}
					if d.HeldOn(r, 0) != 0 {
						return false
					}
					drop(k)
				}
			case 3: // move some tokens to a random instance
				if k, r, src, ok := pick(); ok {
					dst := InstanceID(rng.Intn(len(caps)))
					amt := rng.Intn(m.get(r, src) + 2)
					fits := m.get(r, src) >= amt && m.free(dst) >= amt
					if err := d.Move(r, src, dst, amt); (err == nil) != fits {
						t.Logf("op %d: Move(%d, %d->%d, %d): err %v, model fits %v", op, r, src, dst, amt, err, fits)
						return false
					}
					if fits {
						m.add(r, src, -amt)
						m.add(r, dst, amt)
					}
					drop(k)
				}
			case 4: // partial release
				if k, r, src, ok := pick(); ok {
					n := rng.Intn(m.get(r, src) + 1)
					if err := d.ReleaseAt(r, src, n); err != nil {
						t.Logf("op %d: ReleaseAt: %v", op, err)
						return false
					}
					m.add(r, src, -n)
					drop(k)
				}
			case 5: // rejected operations change nothing
				id := InstanceID(rng.Intn(len(caps)))
				if d.AllocAt(next, id, -1) == nil || d.ReleaseAt(next, id, -1) == nil ||
					d.ReleaseAt(next, id, 1) == nil || d.AllocAt(next, id, m.free(id)+1) == nil {
					t.Logf("op %d: a rejected operation succeeded", op)
					return false
				}
			}
			if err := m.check(d, live); err != nil {
				t.Logf("op %d: %v", op, err)
				return false
			}
		}
		// Releasing everything must return the pool to empty.
		for _, r := range live {
			d.ReleaseRequest(r)
		}
		return d.TotalUsed() == 0 && d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: PlaceSpread succeeds iff the subset's total free space covers
// n — unified placement has no locality constraint.
func TestPropertySpreadMatchesFits(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		caps := make([]int, rng.Intn(4)+1)
		for i := range caps {
			caps[i] = rng.Intn(25)
		}
		d := NewDistributedPool(caps)
		n := int(nRaw % 100)
		free, err := d.TotalFree(nil)
		if err != nil {
			return false
		}
		fits := free >= n
		err = d.PlaceSpread(1, n, nil)
		return fits == (err == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The decode hot path allocates one slot per running request per
// iteration, through AllocAt (core and the locality engines) or PlaceSpread
// (spread engines such as StaticHybrid); the steady state of either must
// not allocate.
func TestAllocAtSteadyStateAllocs(t *testing.T) {
	d := NewDistributedPool([]int{1 << 20, 1 << 20, 1 << 20})
	if err := d.AllocAt(1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := d.AllocAt(1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AllocAt(+1) steady state allocates %.1f objects per call, want 0", avg)
	}
	if got := d.HeldOn(1, 0); got != 301 {
		t.Fatalf("HeldOn = %d, want 301", got)
	}
	subset := []InstanceID{1, 2}
	if err := d.PlaceSpread(2, 100, subset); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := d.PlaceSpread(2, 1, subset); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("PlaceSpread(+1) steady state allocates %.1f objects per call, want 0", avg)
	}
	if got := heldBy(d, 2); got != 301 || d.HeldOn(2, 0) != 0 {
		t.Fatalf("held %d (%d on instance 0), want 301 (0)", got, d.HeldOn(2, 0))
	}
}
