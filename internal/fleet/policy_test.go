package fleet

import (
	"math/rand"
	"testing"
)

// fakeReplica is a scriptable ReplicaView for policy unit tests. The zero
// value reports a generous uniform capability so capability-blind tests
// behave as on a homogeneous fleet.
type fakeReplica struct {
	tokens  int
	depth   int
	cached  int
	session int // session-owned portion of cached (0 = none movable)
	cap     ReplicaCapability
}

func (f *fakeReplica) OutstandingTokens() int        { return f.tokens }
func (f *fakeReplica) QueueDepth() int               { return f.depth }
func (f *fakeReplica) CachedTokens(RequestInfo) int  { return f.cached }
func (f *fakeReplica) SessionTokens(RequestInfo) int { return f.session }

func (f *fakeReplica) Capability() ReplicaCapability {
	if f.cap.MaxContext == 0 {
		return ReplicaCapability{Kind: "fake", GPUs: 8, CostUnits: 8, KVCapacity: 1 << 20, MaxContext: 1 << 20, PrefillRate: 50_000}
	}
	return f.cap
}

func views(fs ...*fakeReplica) []ReplicaView {
	out := make([]ReplicaView, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	vs := views(&fakeReplica{}, &fakeReplica{}, &fakeReplica{})
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := p.Pick(RequestInfo{}, vs); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedPicksMinTieLowestIndex(t *testing.T) {
	p := NewLeastLoaded()
	if got := p.Pick(RequestInfo{}, views(&fakeReplica{tokens: 5}, &fakeReplica{tokens: 3}, &fakeReplica{tokens: 9})); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	if got := p.Pick(RequestInfo{}, views(&fakeReplica{tokens: 3}, &fakeReplica{tokens: 3})); got != 0 {
		t.Fatalf("tie pick = %d, want 0", got)
	}
}

func TestPowerOfTwoChoices(t *testing.T) {
	// Deterministic in seed.
	a := NewPowerOfTwoChoices(11)
	b := NewPowerOfTwoChoices(11)
	vs := views(&fakeReplica{tokens: 4}, &fakeReplica{tokens: 1}, &fakeReplica{tokens: 7}, &fakeReplica{tokens: 2})
	for i := 0; i < 50; i++ {
		if got, want := a.Pick(RequestInfo{}, vs), b.Pick(RequestInfo{}, vs); got != want {
			t.Fatalf("pick %d diverged: %d vs %d", i, got, want)
		}
	}
	// Single replica short-circuits.
	if got := a.Pick(RequestInfo{}, views(&fakeReplica{})); got != 0 {
		t.Fatalf("single-replica pick = %d", got)
	}
	// The heaviest replica must never win a pairwise comparison it is in:
	// over many picks with distinct loads, index 2 (load 7) shows up only
	// if both samples land on it — never, since sampling is without
	// replacement.
	p := NewPowerOfTwoChoices(7)
	for i := 0; i < 500; i++ {
		if got := p.Pick(RequestInfo{}, vs); got == 2 {
			t.Fatal("power-of-two picked the strictly heaviest of its pair")
		}
	}
}

func TestPrefixAffinityPrefersWarmReplica(t *testing.T) {
	p := NewPrefixAffinity()
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5), PrefixLen: 3500}
	// Replica 2 holds the session's prefix; equal load elsewhere.
	vs := views(&fakeReplica{tokens: 100}, &fakeReplica{tokens: 100}, &fakeReplica{tokens: 100, cached: 3500})
	if got := p.Pick(req, vs); got != 2 {
		t.Fatalf("pick = %d, want warm replica 2", got)
	}
}

func TestPrefixAffinitySpillsWhenHomeOverloaded(t *testing.T) {
	p := NewPrefixAffinity()
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5), PrefixLen: 3500}
	// The warm replica's queue exceeds what the cache hit saves: the
	// policy must spill to the idle cold replica.
	vs := views(&fakeReplica{tokens: 0}, &fakeReplica{tokens: 10_000, cached: 3500})
	if got := p.Pick(req, vs); got != 0 {
		t.Fatalf("pick = %d, want cold idle replica 0", got)
	}
}

func TestPrefixAffinityHomeIsStable(t *testing.T) {
	p := NewPrefixAffinity()
	req := RequestInfo{InputLen: 1000, SessionKey: SessionKey(7), PrefixLen: 0}
	vs := views(&fakeReplica{}, &fakeReplica{}, &fakeReplica{}, &fakeReplica{})
	first := p.Pick(req, vs)
	for i := 0; i < 10; i++ {
		if got := p.Pick(req, vs); got != first {
			t.Fatalf("cold home drifted: %d then %d", first, got)
		}
	}
	// Different sessions spread over replicas rather than piling on one.
	seen := map[int]bool{}
	for s := int64(1); s <= 64; s++ {
		seen[p.Pick(RequestInfo{InputLen: 1000, SessionKey: SessionKey(s)}, vs)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("64 cold sessions landed on only %d of 4 replicas", len(seen))
	}
	// Stateless requests with equal everything fall back to index 0.
	if got := p.Pick(RequestInfo{InputLen: 1000}, vs); got != 0 {
		t.Fatalf("stateless cold pick = %d", got)
	}
}

// TestByNameAndAllPolicies pins the contract the gateway branches on:
// for every alias ByName accepts, the policy's name and whether it is
// MigrationAware (Gateway.Submit calls PickMigrate) and DirectoryAware
// (NewGatewayGroups attaches the cache directory).
func TestByNameAndAllPolicies(t *testing.T) {
	for _, c := range []struct {
		aliases   []string
		name      string
		migrating bool
		directory bool
	}{
		{[]string{"roundrobin", "rr"}, "RoundRobin", false, false},
		{[]string{"leastloaded", "ll"}, "LeastLoaded", false, false},
		{[]string{"p2c", "poweroftwo"}, "PowerOfTwoChoices", false, false},
		{[]string{"affinity", "prefix"}, "PrefixAffinity", true, false},
		{[]string{"migrate", "migrating"}, "MigratingAffinity", true, false},
		{[]string{"capability", "cap"}, "CapabilityAffinity", true, false},
		{[]string{"content", "directory"}, "ContentAffinity", false, true},
		{[]string{"modulo", "hash"}, "ModuloHash", false, false},
	} {
		for _, alias := range c.aliases {
			p, err := ByName(alias, 1)
			if err != nil || p == nil {
				t.Fatalf("ByName(%q): %v", alias, err)
			}
			_, ma := p.(MigrationAware)
			_, da := p.(DirectoryAware)
			if p.Name() != c.name || ma != c.migrating || da != c.directory {
				t.Errorf("ByName(%q) = %s MigrationAware=%v DirectoryAware=%v, want %s %v %v",
					alias, p.Name(), ma, da, c.name, c.migrating, c.directory)
			}
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
	all := AllPolicies(1)
	if len(all) != 5 {
		t.Fatalf("AllPolicies returned %d policies", len(all))
	}
	names := map[string]bool{}
	for _, p := range all {
		names[p.Name()] = true
	}
	if len(names) != len(all) {
		t.Fatalf("policy names not distinct: %v", names)
	}
}

func TestByNameCapability(t *testing.T) {
	for _, name := range []string{"capability", "cap"} {
		p, err := ByName(name, 1)
		if err != nil || p.Name() != "CapabilityAffinity" {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
	}
}

// fixedMigrator prices every transfer at a constant token cost (and the
// equivalent seconds at a 10K-token/s reference rate).
type fixedMigrator struct{ cost float64 }

func (m fixedMigrator) MigrationTokenCost(int) float64 { return m.cost }
func (m fixedMigrator) MigrationSeconds(int) float64   { return m.cost / 10_000 }

func TestMigratingAffinityDecisions(t *testing.T) {
	p := NewMigratingAffinity()
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5), PrefixLen: 3500}

	// Warm home lightly loaded: stay, no migration.
	vs := views(&fakeReplica{tokens: 100, cached: 3500, session: 3500}, &fakeReplica{tokens: 0})
	d := p.PickMigrate(req, vs, fixedMigrator{cost: 500})
	if d.Dest != 0 || d.From != -1 {
		t.Fatalf("lightly loaded home: got %+v, want stay on 0", d)
	}

	// Warm home badly overloaded, cheap link: migrate the KV to the idle
	// replica instead of recomputing 3500 tokens there.
	vs = views(&fakeReplica{tokens: 50_000, cached: 3500, session: 3500}, &fakeReplica{tokens: 0})
	d = p.PickMigrate(req, vs, fixedMigrator{cost: 500})
	if d.Dest != 1 || d.From != 0 {
		t.Fatalf("overloaded home, cheap link: got %+v, want migrate 0->1", d)
	}

	// Same overload but the link costs more than the recompute it saves:
	// spill cold, no migration.
	d = p.PickMigrate(req, vs, fixedMigrator{cost: 10_000})
	if d.Dest != 1 || d.From != -1 {
		t.Fatalf("expensive link: got %+v, want cold spill to 1", d)
	}

	// Stateless requests never migrate.
	d = p.PickMigrate(RequestInfo{InputLen: 1000}, vs, fixedMigrator{})
	if d.From != -1 {
		t.Fatalf("stateless request migrated: %+v", d)
	}

	// Single replica short-circuits.
	d = p.PickMigrate(req, views(&fakeReplica{cached: 3500, session: 3500}), fixedMigrator{})
	if d.Dest != 0 || d.From != -1 {
		t.Fatalf("single replica: %+v", d)
	}
}

// heteroViews builds one "big" (long-context, expensive, fast) and two
// "small" (cheap, slow, bounded-context) fake replicas.
func heteroViews(bigLoad, smallLoad1, smallLoad2 int) []ReplicaView {
	big := ReplicaCapability{Kind: "big", GPUs: 8, CostUnits: 8, KVCapacity: 900_000, MaxContext: 900_000, PrefillRate: 40_000}
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}
	return views(
		&fakeReplica{tokens: bigLoad, cap: big},
		&fakeReplica{tokens: smallLoad1, cap: small},
		&fakeReplica{tokens: smallLoad2, cap: small},
	)
}

func TestCapabilityAffinityRoutesLongToBig(t *testing.T) {
	p := NewCapabilityAffinity()
	// 80K prompt: beyond half the small kind's envelope, only the big
	// replica is eligible — even when it is the more loaded one.
	req := RequestInfo{InputLen: 80_000}
	if got := p.Pick(req, heteroViews(50_000, 0, 0)); got != 0 {
		t.Fatalf("long prompt routed to replica %d, want big 0", got)
	}
}

func TestCapabilityAffinityRoutesShortToCheap(t *testing.T) {
	p := NewCapabilityAffinity()
	// A chat prompt fits everywhere; idle everywhere: the cheap replica's
	// cost-weighted seconds win (2K/9K*1 << 2K/40K*8).
	req := RequestInfo{InputLen: 2_000}
	if got := p.Pick(req, heteroViews(0, 0, 0)); got == 0 {
		t.Fatal("idle fleet: chat prompt routed to the expensive replica")
	}
}

func TestCapabilityAffinitySpillsUnderLoad(t *testing.T) {
	p := NewCapabilityAffinity()
	// Both small replicas deeply queued: the big replica's expensive
	// seconds become the cheaper option.
	req := RequestInfo{InputLen: 2_000}
	if got := p.Pick(req, heteroViews(0, 500_000, 500_000)); got != 0 {
		t.Fatalf("overloaded cheap fleet: pick = %d, want big 0", got)
	}
}

func TestCapabilityAffinityFallbackMostCapable(t *testing.T) {
	p := NewCapabilityAffinity()
	// Nothing is comfortable (the prompt exceeds every envelope's
	// headroom): the largest envelope wins, load-balancing ties.
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}
	vs := views(
		&fakeReplica{tokens: 90_000, cap: small},
		&fakeReplica{tokens: 10, cap: small},
		&fakeReplica{tokens: 50_000, cap: small},
	)
	if got := p.Pick(RequestInfo{InputLen: 95_000}, vs); got != 1 {
		t.Fatalf("fallback pick = %d, want least-loaded 1", got)
	}
}

func TestCapabilityAffinityHomogeneousMatchesPrefixAffinity(t *testing.T) {
	// On uniform capabilities the capability score is a monotone function
	// of PrefixAffinity's, so the two policies must agree pick for pick
	// wherever the prompt fits the envelope. A seeded sweep over loads,
	// cached tokens and prompt lengths, with ties made common by coarse
	// value grids.
	ca, pa := NewCapabilityAffinity(), NewPrefixAffinity()
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 5000; s++ {
		n := 1 + rng.Intn(6)
		req := RequestInfo{InputLen: 1 + rng.Intn(8000), PrefixLen: rng.Intn(4000)}
		switch rng.Intn(3) {
		case 0:
			req.SessionKey = SessionKey(rng.Int63n(50))
		case 1:
			req.SharedKey = GroupKey(rng.Intn(4))
		}
		fs := make([]*fakeReplica, n)
		for i := range fs {
			fs[i] = &fakeReplica{tokens: 100 * rng.Intn(20)}
			if rng.Intn(2) == 0 {
				fs[i].cached = 500 * rng.Intn(10)
			}
		}
		vs := views(fs...)
		if got, want := ca.Pick(req, vs), pa.Pick(req, vs); got != want {
			t.Fatalf("case %d (%+v, %d replicas): capability picked %d, prefix-affinity %d", s, req, n, got, want)
		}
	}
}

func TestCapabilityAffinityMigration(t *testing.T) {
	p := NewCapabilityAffinity()
	req := RequestInfo{InputLen: 4_000, SessionKey: SessionKey(5), PrefixLen: 3_500}
	big := ReplicaCapability{Kind: "big", GPUs: 8, CostUnits: 8, KVCapacity: 900_000, MaxContext: 900_000, PrefillRate: 40_000}
	small := ReplicaCapability{Kind: "small", GPUs: 1, CostUnits: 1, KVCapacity: 100_000, MaxContext: 100_000, PrefillRate: 9_000}

	// Warm on an overloaded small replica, idle small sibling, cheap link:
	// migrate the session sideways instead of recomputing cold.
	vs := views(
		&fakeReplica{tokens: 0, cap: big},
		&fakeReplica{tokens: 80_000, cached: 3_500, session: 3_500, cap: small},
		&fakeReplica{tokens: 0, cap: small},
	)
	d := p.PickMigrate(req, vs, fixedMigrator{cost: 200})
	if d.From != 1 || d.Dest == 1 {
		t.Fatalf("overloaded warm small: got %+v, want migration off 1", d)
	}

	// Same situation, ruinously expensive link: spill cold, no migration.
	d = p.PickMigrate(req, vs, fixedMigrator{cost: 500_000})
	if d.From != -1 {
		t.Fatalf("expensive link: got %+v, want no migration", d)
	}

	// A long session never migrates onto an ineligible small replica.
	long := RequestInfo{InputLen: 80_000, SessionKey: SessionKey(9), PrefixLen: 70_000}
	vs = views(
		&fakeReplica{tokens: 600_000, cached: 70_000, session: 70_000, cap: big},
		&fakeReplica{tokens: 0, cap: small},
		&fakeReplica{tokens: 0, cap: small},
	)
	d = p.PickMigrate(long, vs, fixedMigrator{cost: 100})
	if d.Dest != 0 || d.From != -1 {
		t.Fatalf("long session: got %+v, want stay on big 0", d)
	}
}

func TestPrefixAffinityNeverMigrates(t *testing.T) {
	// The non-migrating preset is MigrationAware only to share one type;
	// where MigratingAffinity moves the KV, it must spill cold instead.
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5), PrefixLen: 3500}
	vs := views(&fakeReplica{tokens: 50_000, cached: 3500, session: 3500}, &fakeReplica{tokens: 0})
	if d := NewMigratingAffinity().PickMigrate(req, vs, fixedMigrator{cost: 500}); d.From != 0 {
		t.Fatalf("MigratingAffinity: got %+v, want migrate 0->1", d)
	}
	if d := NewPrefixAffinity().PickMigrate(req, vs, fixedMigrator{cost: 500}); d.Dest != 1 || d.From != -1 {
		t.Fatalf("PrefixAffinity: got %+v, want cold spill to 1", d)
	}
}

func TestContentAffinityTiesBreakToOverlap(t *testing.T) {
	// Equal scores: the larger overlap wins over the hashed home, where
	// the probe presets take the home. Replica 0's extra load cancels its
	// 1000-token overlap at the content load weight (0.4 * 2500 = 1000).
	req := RequestInfo{InputLen: 4000, SessionKey: SessionKey(5), PrefixLen: 1000}
	home := int(mix64(uint64(req.SessionKey)) % 2)
	fs := []*fakeReplica{{}, {}}
	fs[1-home] = &fakeReplica{tokens: 2500, cached: 1000}
	p := NewContentAffinity()
	if got := p.Pick(req, views(fs...)); got != 1-home {
		t.Fatalf("content tie: pick = %d, want overlapping replica %d", got, 1-home)
	}
	if claim, _, eligible := p.LastPick(); claim != 1000 || eligible != 2 {
		t.Fatalf("LastPick claim %d eligible %d, want 1000 2", claim, eligible)
	}
	// The same tie at load weight 1 goes home under the probe presets.
	fs[1-home] = &fakeReplica{tokens: 1000, cached: 1000}
	if got := NewPrefixAffinity().Pick(req, views(fs...)); got != home {
		t.Fatalf("prefix-affinity tie: pick = %d, want home %d", got, home)
	}
}

func TestContentAffinityRespectsEnvelope(t *testing.T) {
	// Token-priced like PrefixAffinity, but envelope-bound like
	// CapabilityAffinity: an 80K prompt stays off the small replicas
	// even though they are idle.
	req := RequestInfo{InputLen: 80_000}
	if got := NewContentAffinity().Pick(req, heteroViews(50_000, 0, 0)); got != 0 {
		t.Fatalf("long prompt routed to replica %d, want big 0", got)
	}
	if got := NewPrefixAffinity().Pick(req, heteroViews(50_000, 0, 0)); got == 0 {
		t.Fatal("capability-blind prefix-affinity kept the long prompt on the loaded big replica")
	}
}
