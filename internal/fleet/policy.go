package fleet

import (
	"fmt"
	"math/rand"

	"loongserve/internal/kvcache"
)

// RequestInfo is what a routing policy may see about an arriving request:
// identity, prompt length, and the prefix-reuse structure. Output length
// is deliberately absent — a real router does not know it.
type RequestInfo struct {
	ID       kvcache.RequestID
	InputLen int

	SessionKey PrefixKey // 0 = stateless
	SharedKey  PrefixKey // 0 = no shared system prompt
	PrefixLen  int       // head tokens reusable under SessionKey
	SharedLen  int       // head tokens reusable under SharedKey

	// Blocks is the input-covering block-hash chain (workload.Entry's
	// chain cut at the input boundary) — the lookup key of radix-mode
	// prefix caches. nil for stateless requests and whole-key-mode runs
	// may ignore it.
	Blocks []uint64
}

// ReplicaCapability is the static capability sheet of one replica, derived
// from its kind's cluster, engine and cost model (see ReplicaKind) — what
// distinguishes replicas in a heterogeneous fleet beyond their load.
type ReplicaCapability struct {
	Kind string // kind name
	GPUs int
	// CostUnits is the relative cost of keeping the replica alive per
	// second (GPU-seconds by derivation).
	CostUnits float64
	// KVCapacity is the replica's total KV pool in token slots.
	KVCapacity int
	// MaxContext is the largest single sequence the replica's engine can
	// hold — its long-context envelope.
	MaxContext int
	// PrefillRate is tokens/second at the reference 8K prefill, the
	// speed term of capability-aware scores.
	PrefillRate float64
}

// ReplicaView is a policy's read-only window onto one replica.
type ReplicaView interface {
	// OutstandingTokens is the gateway-accounted in-flight token load
	// (prompt + budgeted output of every routed, unfinished request).
	OutstandingTokens() int
	// QueueDepth is the in-flight request count; engines implementing
	// serving.LoadReporter report their internal queue, others fall back
	// to gateway accounting.
	QueueDepth() int
	// CachedTokens is the prefix-cache hit the replica would serve for
	// req right now (0 = cold).
	CachedTokens(req RequestInfo) int
	// SessionTokens is the resident KV belonging to req's own session on
	// this replica — the portion a migration could physically move. Shared
	// system-prompt entries are excluded: they are replicated, not owned.
	SessionTokens(req RequestInfo) int
	// Capability is the replica's static capability sheet. Homogeneous
	// fleets return the same sheet for every replica, which makes every
	// capability-aware score degenerate to its load-and-affinity terms.
	Capability() ReplicaCapability
}

// Policy picks a replica for each arriving request. Implementations must
// be deterministic given the same call sequence; any randomness comes from
// an explicit seed.
type Policy interface {
	Name() string
	Pick(req RequestInfo, replicas []ReplicaView) int
}

// RoundRobin cycles through replicas in order — the zero-information
// baseline.
type RoundRobin struct{ next int }

// NewRoundRobin returns a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "RoundRobin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ RequestInfo, replicas []ReplicaView) int {
	i := p.next % len(replicas)
	p.next++
	return i
}

// LeastLoaded routes to the replica with the fewest outstanding tokens —
// the generalization of the ad-hoc least-loaded router the multi-node
// baselines used.
type LeastLoaded struct{}

// NewLeastLoaded returns a least-outstanding-tokens policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (p *LeastLoaded) Name() string { return "LeastLoaded" }

// Pick implements Policy: lowest outstanding tokens, ties to the lowest
// index (matching the historical baselines router exactly).
func (p *LeastLoaded) Pick(_ RequestInfo, replicas []ReplicaView) int {
	best := 0
	for i := 1; i < len(replicas); i++ {
		if replicas[i].OutstandingTokens() < replicas[best].OutstandingTokens() {
			best = i
		}
	}
	return best
}

// PowerOfTwoChoices samples two replicas with a seeded RNG and routes to
// the less loaded — load balancing with O(1) state queries and
// near-least-loaded tail behavior (the classic Mitzenmacher result).
type PowerOfTwoChoices struct{ rng *rand.Rand }

// NewPowerOfTwoChoices returns the policy; seed fixes the sampling stream.
func NewPowerOfTwoChoices(seed int64) *PowerOfTwoChoices {
	return &PowerOfTwoChoices{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (p *PowerOfTwoChoices) Name() string { return "PowerOfTwoChoices" }

// Pick implements Policy.
func (p *PowerOfTwoChoices) Pick(_ RequestInfo, replicas []ReplicaView) int {
	n := len(replicas)
	if n == 1 {
		return 0
	}
	a := p.rng.Intn(n)
	b := p.rng.Intn(n - 1)
	if b >= a {
		b++ // sample without replacement
	}
	if replicas[b].OutstandingTokens() < replicas[a].OutstandingTokens() {
		return b
	}
	return a
}

// Migrator is the gateway-side cost oracle handed to MigrationAware
// policies: it converts a KV transfer into the prefill-token units policy
// scores are denominated in.
type Migrator interface {
	// MigrationTokenCost returns the prefill-token-equivalent cost of
	// moving n KV tokens between two replicas over the fleet interconnect.
	MigrationTokenCost(n int) float64
	// MigrationSeconds returns the same transfer priced in link seconds —
	// the denomination capability-aware policies use, since replicas of
	// different kinds turn seconds into tokens at different rates.
	MigrationSeconds(n int) float64
}

// Decision is a MigrationAware policy's verdict for one request: the
// destination replica, and optionally a source replica whose copy of the
// request's session KV should be migrated to the destination first
// (From == -1 routes without migration).
type Decision struct {
	Dest int
	From int
}

// MigrationAware policies may resolve the affinity-vs-load conflict with a
// third option beyond "stay on the warm replica" and "recompute cold":
// physically move the session's KV to a less-loaded replica when the link
// transfer is cheaper than the recompute it avoids. The gateway executes
// the migration before delivering the request.
type MigrationAware interface {
	Policy
	PickMigrate(req RequestInfo, replicas []ReplicaView, m Migrator) Decision
}

// DirectoryAware policies route off the gateway's global cache directory
// instead of probing every replica's cache. The gateway attaches its
// directory when Config.Directory is on; unattached (directory off), the
// policy falls back to the per-replica CachedTokens probe so it still
// functions standalone.
type DirectoryAware interface {
	Policy
	AttachDirectory(*CacheDirectory)
}

// DirectoryLocator is implemented by replica views that know their stable
// fleet index — the global cache directory's location key. Directory-aware
// policies must read the directory through it: the active-views slice they
// are handed compacts over crashed and drained replicas, so a view's slice
// position is not its directory location once the fleet has churned.
type DirectoryLocator interface {
	Index() int
}

// DefaultCapabilityHeadroom is the fraction of a replica's MaxContext a
// request's prompt may comfortably occupy before capability-aware routing
// stops sending it there: a session needs room to grow across turns and
// to coexist with other residents, so a prompt at, say, 80% of a small
// replica's whole pool belongs on a longer-context kind even though it
// would technically fit.
const DefaultCapabilityHeadroom = 0.5

// contentLoadWeight is ContentAffinity's load weight. It is deliberately
// low: directory overlap is the signal that preset exists to exploit, so
// load only breaks near-ties rather than dragging requests off their warm
// replicas; at weight 1 it converges on PrefixAffinity's placements and
// the directory buys nothing.
const contentLoadWeight = 0.4

// affinity is the one scorer behind every cache-affinity policy. It
// prices routing a request to a replica as the prefill the replica would
// compute (the prompt minus its resident prefix, the overlap) plus its
// outstanding tokens times loadWeight, and routes to the cheapest. New
// sessions hash to a stable home replica that wins score ties, so the
// turns and sibling sessions that follow find warm caches, while a
// sufficiently loaded home loses to a cold, idle replica — the
// cache-affinity-vs-load balance the arodland/loadbalance simulation
// studies.
//
// Presets switch on the rest. Costed presets convert that work into
// cost-weighted seconds at the replica kind's prefill rate, so short
// prompts flow to cheap kinds; on a homogeneous fleet the conversion is
// one monotone scaling, so the placements match the capability-blind
// ones. Envelope presets only consider replicas whose context envelope
// the prompt comfortably fits, so long prompts flow to long-context
// kinds.
//
// Migrating presets add the migrate-vs-recompute decision: the session's
// KV may move from its warmest holder to a less-loaded replica when the
// link transfer beats the recompute it avoids — LoongServe's
// multi-replica analogue of choosing KV movement over recomputation.
type affinity struct {
	name        string
	costed      bool // price in cost-weighted seconds, not tokens
	envelope    bool // only route where the prompt comfortably fits
	migrate     bool // weigh migrate-vs-recompute (PickMigrate)
	overlapTies bool // break score ties to the larger overlap first
	// loadWeight converts outstanding tokens into prefill-token units:
	// 1 treats a queued token and a cold prefill token as equally costly.
	loadWeight float64
	// dir, once attached, replaces the per-replica cache probe as the
	// overlap source.
	dir *CacheDirectory
}

// Name implements Policy.
func (a *affinity) Name() string { return a.name }

// Pick implements Policy.
func (a *affinity) Pick(req RequestInfo, replicas []ReplicaView) int {
	best, _, _, _ := a.pick(req, replicas)
	return best
}

// sheet returns r's capability sheet and whether req may be placed
// there. Capability-blind presets (neither costed nor envelope-bound)
// skip the probe and accept every replica.
func (a *affinity) sheet(req RequestInfo, r ReplicaView) (ReplicaCapability, bool) {
	if !a.costed && !a.envelope {
		return ReplicaCapability{}, true
	}
	c := r.Capability()
	return c, !a.envelope || float64(req.InputLen) <= DefaultCapabilityHeadroom*float64(c.MaxContext)
}

// price scores serving a miss-token prefill on r (sheet c), plus link, a
// pending migration's transfer in the preset's denomination (link seconds
// when costed, prefill tokens otherwise).
func (a *affinity) price(miss int, r ReplicaView, c ReplicaCapability, link float64) float64 {
	if !a.costed {
		return float64(miss) + link + a.loadWeight*float64(r.OutstandingTokens())
	}
	rate := c.PrefillRate
	if rate <= 0 {
		rate = 1
	}
	return ((float64(miss)+a.loadWeight*float64(r.OutstandingTokens()))/rate + link) * c.CostUnits
}

// overlap is the resident-prefix claim for req at view slot i: the live
// cache probe, or the directory's record once one is attached. The
// directory location is the view's stable fleet index (DirectoryLocator),
// not i: the active-views slice compacts over crashed and drained
// replicas, so slot i can be a different replica than location i.
func (a *affinity) overlap(req RequestInfo, i int, r ReplicaView) int {
	if a.dir == nil {
		return r.CachedTokens(req)
	}
	loc := i
	if dl, ok := r.(DirectoryLocator); ok {
		loc = dl.Index()
	}
	if len(req.Blocks) > 0 {
		return min(a.dir.ChainOverlap(req.Blocks, loc), req.InputLen)
	}
	// Whole-key mode: the directory stores entry keys; the usable overlap
	// is capped by the reusable prefix length, mirroring replica.lookup.
	best := 0
	if req.SessionKey != 0 {
		best = min(a.dir.Tokens(uint64(req.SessionKey), loc), req.PrefixLen)
	}
	if req.SharedKey != 0 {
		best = max(best, min(a.dir.Tokens(uint64(req.SharedKey), loc), req.SharedLen))
	}
	return best
}

// pick scores the candidate replicas and returns the winner, its score
// and overlap, and the candidate count. Candidates are the replicas the
// prompt comfortably fits or, when none does, those with the largest
// context envelope — the class that fails least badly — where ties go to
// the lowest index so load alone spreads the oversize tail. Otherwise
// ties go to the hashed home (after the larger overlap, for presets that
// prefer it).
func (a *affinity) pick(req RequestInfo, replicas []ReplicaView) (best int, bestScore float64, bestOverlap, candidates int) {
	n := len(replicas)
	fits, top := !a.envelope, 0
	for i := 0; i < n && !fits; i++ {
		c, ok := a.sheet(req, replicas[i])
		fits, top = ok, max(top, c.MaxContext)
	}
	home := -1
	if key := stickyKey(req); key != 0 {
		home = int(mix64(key) % uint64(n))
	}
	best = -1
	for i, r := range replicas {
		c, ok := a.sheet(req, r)
		if !fits {
			ok = c.MaxContext == top
		}
		if !ok {
			continue
		}
		candidates++
		o := a.overlap(req, i, r)
		score := a.price(max(req.InputLen-o, 0), r, c, 0)
		better := best == -1 || score < bestScore
		if !better && score == bestScore && fits {
			if a.overlapTies && o != bestOverlap {
				better = o > bestOverlap
			} else {
				better = i == home
			}
		}
		if better {
			best, bestScore, bestOverlap = i, score, o
		}
	}
	return best, bestScore, bestOverlap, candidates
}

// stickyKey is the request's stickiest prefix key: its session, else its
// shared system prompt, else 0.
func stickyKey(req RequestInfo) uint64 {
	if req.SessionKey != 0 {
		return uint64(req.SessionKey)
	}
	return uint64(req.SharedKey)
}

// CapabilityAffinity is the affinity scorer over per-replica cache
// probes, at load weight 1. Its presets differ only in capability
// awareness and migration:
//
//   - NewPrefixAffinity: capability-blind, no migration;
//   - NewMigratingAffinity: capability-blind, migrates;
//   - NewCapabilityAffinity: costed and envelope-bound, migrates.
//
// Every preset is MigrationAware; the non-migrating one always answers
// From == -1. The capability-blind presets are the ablation arm of
// heterogeneous comparisons.
type CapabilityAffinity struct{ affinity }

// NewPrefixAffinity returns the capability-blind, non-migrating preset.
func NewPrefixAffinity() *CapabilityAffinity {
	return &CapabilityAffinity{affinity{name: "PrefixAffinity", loadWeight: 1}}
}

// NewMigratingAffinity returns the capability-blind, migrating preset.
func NewMigratingAffinity() *CapabilityAffinity {
	return &CapabilityAffinity{affinity{name: "MigratingAffinity", migrate: true, loadWeight: 1}}
}

// NewCapabilityAffinity returns the capability-aware, migrating preset.
func NewCapabilityAffinity() *CapabilityAffinity {
	return &CapabilityAffinity{affinity{name: "CapabilityAffinity", costed: true, envelope: true, migrate: true, loadWeight: 1}}
}

// PickMigrate implements MigrationAware: pick plus, for migrating
// presets, the option of moving the session's KV from the replica holding
// most of it to another replica the prompt fits, paying the link instead
// of the recompute.
func (p *CapabilityAffinity) PickMigrate(req RequestInfo, replicas []ReplicaView, m Migrator) Decision {
	best, bestScore, _, _ := p.pick(req, replicas)
	if !p.migrate || req.SessionKey == 0 || len(replicas) < 2 {
		return Decision{Dest: best, From: -1}
	}
	src, cached := -1, 0
	for i, r := range replicas {
		if c := r.SessionTokens(req); c > cached {
			src, cached = i, c
		}
	}
	if src < 0 || src == best {
		return Decision{Dest: best, From: -1}
	}
	var link float64
	if p.costed {
		link = m.MigrationSeconds(cached)
	} else {
		link = m.MigrationTokenCost(cached)
	}
	miss := max(req.InputLen-cached, 0)
	dest, destScore, destLink := -1, 0.0, 0.0
	for i, r := range replicas {
		if i == src {
			continue
		}
		c, ok := p.sheet(req, r)
		if !ok {
			continue
		}
		if s := p.price(miss, r, c, link); dest == -1 || s < destScore {
			dest, destScore, destLink = i, s, link
			if p.costed {
				destLink = link * c.CostUnits
			}
		}
	}
	// Hysteresis: a move must beat staying by more than its own transfer
	// cost, or marginal load differences make sessions ping-pong between
	// replicas (each bounce paying the link for nothing).
	if dest >= 0 && destScore+destLink < bestScore {
		return Decision{Dest: dest, From: src}
	}
	return Decision{Dest: best, From: -1}
}

// ContentAffinity is the affinity scorer with the gateway's global cache
// directory as its overlap source: the request's block chain matched
// against each replica's directory-resident blocks. It prices in tokens
// at load weight contentLoadWeight, keeps to the replicas the prompt
// comfortably fits, breaks score ties to the larger overlap and never
// migrates. Where the probe presets query every replica's cache
// omnisciently per request, ContentAffinity reads one gateway-side
// structure maintained by residency events — the deployable version —
// and so also prices partial overlaps (branch trunks, shared system
// prompts) that whole-key probes undervalue, and composes with the cold
// tier (a directory hit at DirCold becomes a fetch instead of a
// recompute).
type ContentAffinity struct {
	affinity

	// Last-pick explanation, read by the gateway's content-route emitter:
	// the overlap tokens claimed at the chosen replica, its queue depth at
	// pick time, and how many replicas were candidates.
	lastClaim    int
	lastQueue    int
	lastEligible int
}

// NewContentAffinity returns the policy.
func NewContentAffinity() *ContentAffinity {
	return &ContentAffinity{affinity: affinity{name: "ContentAffinity", envelope: true, overlapTies: true, loadWeight: contentLoadWeight}}
}

// AttachDirectory implements DirectoryAware.
func (p *ContentAffinity) AttachDirectory(d *CacheDirectory) { p.dir = d }

// LastPick returns the explanation of the most recent Pick.
func (p *ContentAffinity) LastPick() (claim, queue, eligible int) {
	return p.lastClaim, p.lastQueue, p.lastEligible
}

// Pick implements Policy.
func (p *ContentAffinity) Pick(req RequestInfo, replicas []ReplicaView) int {
	best, _, claim, eligible := p.pick(req, replicas)
	p.lastClaim, p.lastQueue, p.lastEligible = claim, replicas[best].QueueDepth(), eligible
	return best
}

// ModuloHash routes every request by hashing its stickiest key modulo the
// replica count — the classic consistent-bucket baseline: perfect session
// stickiness, zero load awareness, and a reshuffle of every home whenever
// the active set changes size. It is the degenerate endpoint of
// cache-aware routing (affinity with no load term) and the natural
// baseline for the cache-directory experiment.
type ModuloHash struct{}

// NewModuloHash returns the policy.
func NewModuloHash() *ModuloHash { return &ModuloHash{} }

// Name implements Policy.
func (p *ModuloHash) Name() string { return "ModuloHash" }

// Pick implements Policy.
func (p *ModuloHash) Pick(req RequestInfo, replicas []ReplicaView) int {
	key := stickyKey(req)
	if key == 0 {
		key = uint64(req.ID) // stateless: spread by request identity
	}
	return int(mix64(key) % uint64(len(replicas)))
}

// ByName returns a fresh policy instance for a CLI-facing name.
func ByName(name string, seed int64) (Policy, error) {
	switch name {
	case "roundrobin", "rr":
		return NewRoundRobin(), nil
	case "leastloaded", "ll":
		return NewLeastLoaded(), nil
	case "p2c", "poweroftwo":
		return NewPowerOfTwoChoices(seed), nil
	case "affinity", "prefix":
		return NewPrefixAffinity(), nil
	case "migrate", "migrating":
		return NewMigratingAffinity(), nil
	case "capability", "cap":
		return NewCapabilityAffinity(), nil
	case "content", "directory":
		return NewContentAffinity(), nil
	case "modulo", "hash":
		return NewModuloHash(), nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (want roundrobin, leastloaded, p2c, affinity, migrate, capability, content or modulo)", name)
}

// AllPolicies returns one fresh instance of every load/affinity policy, in
// presentation order. CapabilityAffinity is deliberately not included: on
// the homogeneous fleets this set is compared on it reduces to
// PrefixAffinity's ordering, so the historical comparison tables keep
// their exact rows; heterogeneous comparisons add it explicitly.
// ContentAffinity and ModuloHash are likewise excluded for the same
// table-stability reason — the cache-directory experiment compares them
// explicitly.
func AllPolicies(seed int64) []Policy {
	return []Policy{
		NewRoundRobin(),
		NewLeastLoaded(),
		NewPowerOfTwoChoices(seed),
		NewPrefixAffinity(),
		NewMigratingAffinity(),
	}
}
