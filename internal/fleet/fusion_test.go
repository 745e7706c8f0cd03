package fleet_test

import (
	"reflect"
	"testing"
	"time"

	"loongserve/internal/costmodel"
	"loongserve/internal/fleet"
	"loongserve/internal/kvcache"
	"loongserve/internal/obs"
	"loongserve/internal/simevent"
	"loongserve/internal/workload"
)

// samplerEvery is deliberately not a round multiple of anything, so the
// telemetry sampler's Load probes land at arbitrary points inside fused
// decode windows.
const samplerEvery = 7_300_001 * time.Nanosecond

// runObserved runs scripts open-loop on cfg at the given shard count with
// faults injected, an obs collector attached and a telemetry sampler
// probing every replica's Load every samplerEvery.
func runObserved(t *testing.T, cfg fleet.Config, scripts []workload.SessionScript, faults []workload.Fault, shards int) (*fleet.Result, []obs.Event, []obs.Sample) {
	t.Helper()
	col := &obs.Collector{}
	sampler := &obs.Sampler{Interval: samplerEvery}
	cfg.Obs, cfg.Sampler, cfg.Shards = col, sampler, shards
	sim := simevent.New()
	g, err := fleet.NewGatewayGroups(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	fleet.InjectFaults(g, faults)
	res, err := fleet.FeedSessions(g, scripts, false).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, col.Events, sampler.Samples()
}

// TestDecodeFusionIdentity: with fusion on, every observable output is
// byte-identical to fusion off — records, stats, obs stream and the
// sampler's mid-window Load snapshots — while the simulator fires strictly
// fewer events. Checked serial and sharded, on an
// ESP-only fleet, on a mixed ESP + ContBatch fleet routed by capability,
// and on the mixed fleet under crash and stall faults with hedging armed.
func TestDecodeFusionIdentity(t *testing.T) {
	wcfg := workload.DefaultSessionConfig()
	wcfg.Sessions = 20
	wcfg.SessionRate = 1
	wcfg.ThinkMean = 2
	chat := workload.DefaultSessionConfig()
	chat.Sessions = 60
	chat.SessionRate = 4
	chat.ThinkMean = 0.3
	mixed := func() fleet.Config {
		lk := loongKind(t)
		return fleet.Config{
			Groups:  []fleet.ReplicaGroup{{Kind: lk, Count: 1}, {Kind: cheapKind(t), Count: 3}},
			SLOKind: lk,
			Policy:  fleet.NewCapabilityAffinity(),
			Cache:   fleet.CacheRadix,
		}
	}
	cases := []struct {
		name    string
		scripts []workload.SessionScript
		mk      func() fleet.Config
		faults  []workload.Fault
	}{
		{"loong", workload.SessionScripts(wcfg, 41), func() fleet.Config {
			return fleet.Config{Groups: []fleet.ReplicaGroup{{Kind: loongKind(t), Count: 2}}, Policy: fleet.NewLeastLoaded()}
		}, nil},
		{"mixed", workload.SessionScripts(chat, 17), mixed, nil},
		{"mixed-faults-hedged", workload.SessionScripts(chat, 17), func() fleet.Config {
			cfg := mixed()
			cfg.Hedge = fleet.HedgeConfig{Quantile: 0.9, MinSamples: 10, MinInput: 1}
			return cfg
		}, fleet.ChaosFaults()},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			run := func(fuse bool) (*fleet.Result, []obs.Event, []obs.Sample) {
				cfg := c.mk()
				cfg.FuseDecode = fuse
				return runObserved(t, cfg, c.scripts, c.faults, shards)
			}
			plain, pev, psm := run(false)
			fused, fev, fsm := run(true)
			if fused.SimEvents >= plain.SimEvents {
				t.Fatalf("%s shards=%d: fusion fired %d events, plain %d — no event reduction",
					c.name, shards, fused.SimEvents, plain.SimEvents)
			}
			// SimEvents legitimately differ; compare everything else.
			fused.SimEvents = plain.SimEvents
			fleet.RequireIdentical(t, c.name+" fusion", plain, fused, pev, fev)
			if len(psm) == 0 || !reflect.DeepEqual(psm, fsm) {
				t.Fatalf("%s shards=%d: sampler Load snapshots differ with fusion on (%d vs %d samples)",
					c.name, shards, len(fsm), len(psm))
			}
		}
	}
}

// TestDecodeFusionArrivalOnBoundary: a request reaching a ContBatch replica
// on the exact nanosecond of an interior boundary of a fused decode window
// is routed (Load probes included) and admitted exactly as without fusion.
// The runner fires the gateway before replica events at one instant, so
// the unfused engine sees the arrival before that boundary's decode event;
// the fused window must materialize only the boundaries before it.
func TestDecodeFusionArrivalOnBoundary(t *testing.T) {
	const in, out = 2_000, 40
	kind := cheapKind(t)
	c, err := kind.Spec.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	// The solo request's boundaries: its prefill, then one decode
	// iteration per further token, each rounded on its own.
	cm := costmodel.New(c.Model, c.HW)
	link := c.GroupLink([]kvcache.InstanceID{0})
	at := simevent.Time(0).Add(cm.PrefillIterTime([]int{in}, 1, 1, link))
	var ends []simevent.Time
	for i := 0; i < out-1; i++ {
		at = at.Add(cm.DecodeIterTime(1, in+1+i, 1, 1, 1, link))
		ends = append(ends, at)
	}
	run := func(trace []workload.TimedRequest, fuse bool, shards int) (*fleet.Result, []obs.Event) {
		col := &obs.Collector{}
		res, err := fleet.RunGroups(trace, fleet.Config{
			Groups:     []fleet.ReplicaGroup{{Kind: kind, Count: 1}},
			Policy:     fleet.NewCapabilityAffinity(),
			Obs:        col,
			Shards:     shards,
			FuseDecode: fuse,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, col.Events
	}
	solo := []workload.TimedRequest{{Entry: workload.Entry{InputLen: in, OutputLen: out}}}
	if res, _ := run(solo, false, 1); simevent.Time(res.Records[0].Finish) != ends[len(ends)-1] {
		t.Fatalf("fixture: solo request finished at %v, computed boundaries end at %v", res.Records[0].Finish, ends[len(ends)-1])
	}
	trace := append(solo, workload.TimedRequest{
		Entry:   workload.Entry{InputLen: 300, OutputLen: 20},
		Arrival: time.Duration(ends[9]),
	})
	for _, shards := range []int{1, 2} {
		plain, pev := run(trace, false, shards)
		fused, fev := run(trace, true, shards)
		if fused.SimEvents >= plain.SimEvents {
			t.Fatalf("shards=%d: fusion fired %d events, plain %d", shards, fused.SimEvents, plain.SimEvents)
		}
		fused.SimEvents = plain.SimEvents
		fleet.RequireIdentical(t, "boundary arrival", plain, fused, pev, fev)
	}
}
