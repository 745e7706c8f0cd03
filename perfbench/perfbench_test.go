package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"loongserve/internal/baselines"
	"loongserve/internal/core"
	"loongserve/internal/fleet"
	"loongserve/internal/serving"
)

// smallSizes keep each workload's shape at a scale a test can run.
var smallSizes = map[string]int{
	"bigfleet-open": 150,
	"esp-longctx":   120,
	"agent-closed":  120,
}

func smallWorkload(t *testing.T, name string) *benchWorkload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.size = smallSizes[name]
	return w
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	_, _, names := benchmarkMetrics(t)
	var ours []string
	for _, w := range workloads() {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, ours)
	}
}

// TestEveryMetricPrints runs each workload briefly in both modes and
// checks the result line carries exactly the declared metrics, with their
// units.
func TestEveryMetricPrints(t *testing.T) {
	endToEnd, perLayer, _ := benchmarkMetrics(t)
	for _, name := range []string{"bigfleet-open", "esp-longctx", "agent-closed"} {
		for _, traced := range []bool{false, true} {
			w := smallWorkload(t, name)
			opts := options{workload: name, seed: 42, seconds: 0.001, trace: traced, out: t.TempDir(), revision: "test"}
			rep := runWorkload(w, opts, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d failures=%v",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			var out bytes.Buffer
			rep.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Fatalf("%s trace=%v: result line misses a key: %s", name, traced, lines[len(lines)-1])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for n, unit := range want {
				m, ok := last.Metrics[n]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, n)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, traced, n, m.Unit, unit)
				}
			}
			for n := range last.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", name, traced, n)
				}
			}
			if !traced {
				for n, m := range last.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
					}
				}
			}
		}
	}
}

// TestTracingPreservesDigest checks the traced run reproduces the
// untraced result exactly. bigfleet-open is traced on two shards, where
// engine callbacks run on worker goroutines, against an untraced serial
// run: the recorded digests must not depend on the host's core count.
func TestTracingPreservesDigest(t *testing.T) {
	for _, name := range []string{"bigfleet-open", "esp-longctx", "agent-closed"} {
		w := smallWorkload(t, name)
		if name == "bigfleet-open" {
			w.shards = 1
		}
		plain, err := iterate(w, 7, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "bigfleet-open" {
			w.shards = 2
		}
		tr := newTracer(w.shards)
		traced, err := iterate(w, 7, tr, false)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if plain.out.digest != traced.out.digest {
			t.Errorf("%s: traced digest %016x, untraced %016x", name, traced.out.digest, plain.out.digest)
		}
		st := tr.totals()
		if st.n[spanArrive] == 0 {
			t.Errorf("%s: no Arrive spans recorded", name)
		}
		if name != "esp-longctx" && (tr.policy.calls == 0 || tr.policy.probes == 0) {
			t.Errorf("%s: routing not traced (calls %d, probes %d)", name, tr.policy.calls, tr.policy.probes)
		}
	}
}

// TestWrongDigestFailsRun checks the gate can fire: a recorded digest the
// run does not reproduce fails the run and counts its requests as failed.
func TestWrongDigestFailsRun(t *testing.T) {
	w := smallWorkload(t, "agent-closed")
	opts := options{workload: w.name, seed: 42, seconds: 0.001, out: t.TempDir(), revision: "test"}
	rep := runWorkload(w, opts, map[int64]uint64{42: 0x1234})
	if rep.Correct {
		t.Fatal("run with a wrong recorded digest passed")
	}
	if rep.Failed == 0 || rep.Failed != rep.Attempted {
		t.Errorf("failed %d of %d attempted, want all", rep.Failed, rep.Attempted)
	}
	if len(rep.Metrics) != 0 {
		t.Errorf("failed run reported metrics %v", rep.Metrics)
	}
	if len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], "recorded") {
		t.Errorf("failures %v do not name the recorded digest", rep.Failures)
	}
}

func TestRecordedDigestsParse(t *testing.T) {
	expected, err := parseExpected(expectedDigestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if len(expected[w.name]) < 2 {
			t.Errorf("%s: %d recorded digests, want the default seed and a held-out one", w.name, len(expected[w.name]))
		}
	}
}

// TestWrappersExposeExactInterfaces checks each wrapper implements the
// optional interfaces of the value it wraps and no others.
func TestWrappersExposeExactInterfaces(t *testing.T) {
	tr := newTracer(0)
	for _, c := range []struct {
		eng  serving.Engine
		want [4]bool // LoadReporter, CapabilityReporter, Traceable, DecodeFuser
	}{
		{core.New(2, core.Options{}), [4]bool{true, true, true, true}},
		{baselines.NewVLLM(1), [4]bool{true, true, false, false}},
	} {
		w := tr.wrapEngine(c.eng)
		_, lr := w.(serving.LoadReporter)
		_, cr := w.(serving.CapabilityReporter)
		_, tc := w.(serving.Traceable)
		_, df := w.(serving.DecodeFuser)
		if got := [4]bool{lr, cr, tc, df}; got != c.want {
			t.Errorf("%T wrapped exposes %v, want %v", c.eng, got, c.want)
		}
	}
	for _, c := range []struct {
		p             fleet.Policy
		migrate, dirs bool
	}{
		{fleet.NewCapabilityAffinity(), true, false},
		{fleet.NewContentAffinity(), false, true},
		{fleet.NewRoundRobin(), false, false},
	} {
		w := tr.wrapPolicy(c.p)
		_, ma := w.(fleet.MigrationAware)
		_, da := w.(fleet.DirectoryAware)
		if ma != c.migrate || da != c.dirs {
			t.Errorf("%s wrapped: MigrationAware=%v DirectoryAware=%v, want %v %v", c.p.Name(), ma, da, c.migrate, c.dirs)
		}
		if w.Name() != c.p.Name() {
			t.Errorf("wrapped name %q, want %q", w.Name(), c.p.Name())
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	w := smallWorkload(t, "esp-longctx")
	it, err := iterate(w, 42, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(it.profile)
	if err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Skip("no samples collected")
	}
	sum := 0.0
	for _, s := range p.shares() {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		f    profFunc
		want string
	}{
		{profFunc{"loongserve/internal/fleet.(*CapabilityAffinity).PickMigrate", "/x/internal/fleet/policy.go"}, "fleet.route"},
		{profFunc{"loongserve/internal/fleet.(*replica).CachedTokens", "/x/internal/fleet/gateway.go"}, "fleet.route"},
		{profFunc{"loongserve/internal/fleet.(*RadixCache).matchLen", "/x/internal/fleet/radixcache.go"}, "fleet.cache"},
		{profFunc{"loongserve/internal/fleet.(*shardRunner).advance", "/x/internal/fleet/shard.go"}, "fleet.runner"},
		{profFunc{"loongserve/internal/fleet.(*Gateway).complete", "/x/internal/fleet/gateway.go"}, "fleet.gateway"},
		{profFunc{"loongserve/internal/obs/analyze.(*Auditor).Emit", "/x/internal/obs/analyze/auditor.go"}, "obs"},
		{profFunc{"loongserve/internal/core.(*Engine).dispatch", "/x/internal/core/scheduler.go"}, "core"},
		{profFunc{"loongserve/internal/cluster.New", "/x/internal/cluster/cluster.go"}, "other"},
		{profFunc{"runtime.mallocgc", "/go/src/runtime/malloc.go"}, "runtime"},
		{profFunc{"internal/runtime/maps.h2", "/go/src/internal/runtime/maps/group.go"}, "runtime"},
		{profFunc{"gcWriteBarrier", "/go/src/runtime/asm_amd64.s"}, "runtime"},
		{profFunc{"main.fleetDigest", "/x/perfbench/digest.go"}, "other"},
	} {
		if got := layerOf(c.f); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.f.name, got, c.want)
		}
	}
}

func TestParseOptions(t *testing.T) {
	var sink bytes.Buffer
	for _, args := range [][]string{
		{},
		{"--workload", "x", "--trace", "2"},
		{"--workload", "x", "--seconds", "0"},
		{"--workload", "x", "extra"},
	} {
		if _, err := parseOptions(args, &sink); err == nil {
			t.Errorf("parseOptions(%q) accepted bad arguments", args)
		}
	}
	o, err := parseOptions([]string{"--workload", "esp-longctx", "--seed", "7", "--seconds", "3", "--trace", "1"}, &sink)
	if err != nil || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Errorf("parseOptions = %+v, %v", o, err)
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
