package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// inputsPerRun is how many distinct inputs one run measures. Run-to-run
// spread has two sources: which input a seed happens to draw, and the
// host. Rotating through several inputs averages the first; repeating
// each input and taking its median damps the second.
const inputsPerRun = 6

// input is one of a run's inputs.
type input struct {
	seed      int64
	attempted int
	gen       time.Duration // time to generate it once
	digest    uint64        // the digest every iteration on it must reproduce
	seen      bool
}

// inputs derives a run's inputs from its --seed; distinct seeds get
// disjoint inputs.
func inputs(w *benchWorkload, seed int64) []*input {
	ins := make([]*input, inputsPerRun)
	for k := range ins {
		s := seed*inputsPerRun + int64(k)
		n, gen := w.census(w, s)
		ins[k] = &input{seed: s, attempted: n, gen: gen}
	}
	return ins
}

// runDigest folds the inputs' digests into the one digest recorded per
// --seed.
func runDigest(ins []*input) uint64 {
	h := fnv.New64a()
	for _, in := range ins {
		fmt.Fprintf(h, "%016x;", in.digest)
	}
	return h.Sum64()
}

// check is the correctness gate every timed iteration passes through.
func check(in *input, o *outcome) error {
	switch {
	case o.completed != in.attempted:
		return fmt.Errorf("%d of %d requests completed", o.completed, in.attempted)
	case o.violations > 0:
		return fmt.Errorf("audit found %d violations", o.violations)
	case in.seen && o.digest != in.digest:
		return fmt.Errorf("digest %016x differs from this run's first iteration on the input (%016x)", o.digest, in.digest)
	}
	in.digest, in.seen = o.digest, true
	return nil
}

// iteration is one set-up plus one timed entry call.
type iteration struct {
	setup, run time.Duration
	allocs     uint64
	gcCycles   uint32
	gcCPU      cpuClasses
	profile    []byte // CPU profile of the entry call, when asked for
	out        *outcome
}

// mode is how a round runs its iterations.
type mode int

const (
	plain    mode = iota
	profiled      // CPU-profile each entry call
	traced        // run through the tracer's wrappers
)

// iterate prepares and runs the workload once. A panic in the simulator
// is reported as an error, so it fails the run instead of killing it.
func iterate(w *benchWorkload, seed int64, tr *tracer, profile bool) (it iteration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	t0 := time.Now()
	run, err := w.prepare(w, seed, tr)
	it.setup = time.Since(t0)
	if err != nil {
		return it, fmt.Errorf("set-up: %w", err)
	}
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return it, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	c0 := readCPUClasses()
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	summarize, err := run()
	it.run = time.Since(t1)
	runtime.ReadMemStats(&m1)
	if profile {
		pprof.StopCPUProfile()
		it.profile = prof.Bytes()
	}
	it.gcCPU = readCPUClasses().sub(c0)
	it.allocs = m1.Mallocs - m0.Mallocs
	it.gcCycles = m1.NumGC - m0.NumGC
	if err != nil {
		return it, err
	}
	it.out = summarize()
	return it, nil
}

// rounds runs every input once per round until seconds have passed, and
// at least one round, stopping at the first failure. Iterations come back
// grouped by input; ok is false after a failure. After the first round
// the run digest is compared with the recorded one, when there is one.
func rounds(w *benchWorkload, ins []*input, expected map[int64]uint64, seed int64, seconds float64,
	m mode, rep *report, each func(k int, it iteration, tr *tracer)) (byInput [][]iteration, ok bool) {
	label := "untraced"
	if m == traced {
		label = "traced"
	}
	byInput = make([][]iteration, len(ins))
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		for k, in := range ins {
			var tr *tracer
			if m == traced {
				tr = newTracer(w.shards)
			}
			it, err := iterate(w, in.seed, tr, m == profiled)
			rep.Attempted += in.attempted
			if err == nil {
				err = check(in, it.out)
			}
			if err != nil {
				rep.fail(in.attempted, "%s iteration on input %d: %v", label, in.seed, err)
				return byInput, false
			}
			rep.Completed += it.out.completed
			rep.Iterations = append(rep.Iterations, fmt.Sprintf("%-8s input %-5d setup %8.3fms  run %7.3fs  %10.1f req/s  %8.2f allocs/req  digest %016x",
				label, in.seed, ms(it.setup), it.run.Seconds(), float64(it.out.completed)/it.run.Seconds(),
				float64(it.allocs)/float64(it.out.completed), it.out.digest))
			byInput[k] = append(byInput[k], it)
			if each != nil {
				each(k, it, tr)
			}
		}
		if r == 0 {
			got := runDigest(ins)
			rep.RunDigest = fmt.Sprintf("%016x", got)
			if want, pinned := expected[seed]; pinned && got != want {
				round := 0
				for _, in := range ins {
					round += in.attempted
				}
				rep.fail(round, "run digest %016x differs from the recorded %016x for seed %d", got, want, seed)
				return byInput, false
			}
		}
	}
	return byInput, true
}

// sumOfMedians reduces each input's iterations to the median of f and
// sums over inputs: the value for one round of typical iterations.
func sumOfMedians(byInput [][]iteration, f func(iteration) float64) float64 {
	sum := 0.0
	for _, its := range byInput {
		vs := make([]float64, len(its))
		for i, it := range its {
			vs[i] = f(it)
		}
		sum += medianFloat(vs)
	}
	return sum
}

func newReport(w *benchWorkload, opts options, ins []*input) *report {
	seeds := make([]int64, len(ins))
	for k, in := range ins {
		seeds[k] = in.seed
	}
	return &report{
		Metrics: map[string]metric{},
		Provenance: provenance{
			Workload: w.name, Seed: opts.seed, InputSeeds: seeds, Seconds: opts.seconds, Trace: opts.trace,
			Shards: w.shards, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Revision: opts.revision,
		},
	}
}

// runWorkload measures one workload for opts.seconds. expected maps
// --seed values to their recorded run digests.
func runWorkload(w *benchWorkload, opts options, expected map[int64]uint64) *report {
	ins := inputs(w, opts.seed)
	rep := newReport(w, opts, ins)
	requests := 0
	for _, in := range ins {
		requests += in.attempted
	}
	if opts.trace {
		runTraced(w, opts, ins, expected, requests, rep)
	} else if byInput, ok := rounds(w, ins, expected, opts.seed, opts.seconds, plain, rep, nil); ok {
		m := rep.Metrics
		m["sim_req_per_s"] = metric{float64(requests) / sumOfMedians(byInput, runSeconds), "req/s"}
		m["setup_s"] = metric{sumOfMedians(byInput, func(it iteration) float64 { return it.setup.Seconds() }) / float64(len(ins)), "s"}
		m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		m["allocs_per_req"] = metric{sumOfMedians(byInput, func(it iteration) float64 { return float64(it.allocs) }) / float64(requests), "allocs/req"}
		for k, in := range ins {
			rep.addSimulated(in, byInput[k][0].out)
		}
	}
	rep.Correct = len(rep.Failures) == 0 && rep.Attempted > 0
	if !rep.Correct {
		rep.Metrics = map[string]metric{}
	}
	return rep
}

// runTraced splits the time between untraced rounds, whose entry calls
// are CPU-profiled, and traced rounds, and reports the per-layer metrics.
// Counts and times cover one round, every input once, taking each input's
// median.
func runTraced(w *benchWorkload, opts options, ins []*input, expected map[int64]uint64, requests int, rep *report) {
	untraced, ok := rounds(w, ins, expected, opts.seed, opts.seconds/2, profiled, rep, nil)
	if !ok {
		return
	}
	seams := make([][]readings, len(ins))
	var last *tracer
	withTracer, ok := rounds(w, ins, expected, opts.seed, opts.seconds/2, traced, rep, func(k int, it iteration, tr *tracer) {
		seams[k] = append(seams[k], read(tr, it.out))
		last = tr
	})
	if !ok {
		return
	}
	// The profile files of the last untraced round, one per input, merge
	// under go tool pprof.
	cpu := &cpuProfile{charged: map[profFunc]int64{}}
	base := filepath.Join(opts.out, rep.base())
	for k, its := range untraced {
		for _, it := range its {
			p, err := parseCPUProfile(it.profile)
			if err != nil {
				rep.fail(0, "%v", err)
				return
			}
			cpu.add(p)
		}
		path := fmt.Sprintf("%s.input%d.cpu.pprof", base, ins[k].seed)
		if err := os.WriteFile(path, its[len(its)-1].profile, 0o644); err != nil {
			rep.fail(0, "%v", err)
		}
	}
	rep.profile = cpu
	if err := last.writeSpans(base + ".spans.jsonl"); err != nil {
		rep.fail(0, "%v", err)
	}

	r := sumReadings(seams)
	n := float64(requests)
	perReq := func(v float64) float64 { return v / n }
	hitRatio := 0.0
	if r[rdPrefixTokens] > 0 {
		hitRatio = r[rdHitTokens] / r[rdPrefixTokens]
	}
	var gen time.Duration
	for _, in := range ins {
		gen += in.gen
	}
	var gc cpuClasses
	for _, its := range untraced {
		for _, it := range its {
			gc = gc.add(it.gcCPU)
		}
	}
	m := rep.Metrics
	for name, v := range map[string]metric{
		"fleet.route.calls":           {r[rdRouteCalls], "count"},
		"fleet.route.s":               {seconds(r[rdRouteNS]), "s"},
		"fleet.route.probes_per_req":  {perReq(r[rdProbes]), "probes/req"},
		"fleet.route.probe_s":         {seconds(r[rdProbeNS]), "s"},
		"fleet.complete.calls":        {r[rdCompleteCalls], "count"},
		"fleet.complete.s":            {seconds(r[rdCompleteNS]), "s"},
		"fleet.cache.hit_token_ratio": {hitRatio, "frac"},
		"fleet.cache.evicted_per_req": {perReq(r[rdEvicted]), "evictions/req"},
		"fleet.cold.spilled":          {r[rdColdSpilled], "blocks"},
		"fleet.cold.fetches":          {r[rdColdFetches], "count"},
		"fleet.migrations":            {r[rdMigrations], "count"},
		"simevent.events_per_req":     {perReq(r[rdSimEvents]), "events/req"},
		"core.arrive.s":               {seconds(r[rdCoreArriveNS]), "s"},
		"core.elastic_events_per_req": {perReq(r[rdEngineEvents]), "events/req"},
		"baselines.arrive.s":          {seconds(r[rdBaselinesArriveNS]), "s"},
		"costmodel.init_s":            {seconds(r[rdInitNS]), "s"},
		"obs.events_per_req":          {perReq(r[rdObsEvents]), "events/req"},
		"obs.emit_s":                  {seconds(r[rdObsNS]), "s"},
		"workload.gen_s":              {gen.Seconds(), "s"},
		"go.gc_cpu_frac":              {gc.gcFraction(), "frac"},
		"go.gc_cycles":                {sumOfMedians(untraced, func(it iteration) float64 { return float64(it.gcCycles) }), "cycles"},
		"trace.overhead_frac":         {sumOfMedians(withTracer, runSeconds)/sumOfMedians(untraced, runSeconds) - 1, "frac"},
	} {
		m[name] = v
	}
	for layer, share := range cpu.shares() {
		m["cpu."+layer+".share"] = metric{share, "frac"}
	}
	for k, in := range ins {
		rep.addSimulated(in, withTracer[k][0].out)
	}
}

// readings are one traced iteration's seam counters and the per-layer
// facts of its result, indexed by the constants below. Times are in
// nanoseconds.
type readings [rdNumReadings]float64

const (
	rdRouteCalls = iota
	rdRouteNS
	rdProbes
	rdProbeNS
	rdCompleteCalls
	rdCompleteNS
	rdCoreArriveNS
	rdBaselinesArriveNS
	rdEngineEvents
	rdInitNS
	rdObsEvents
	rdObsNS
	rdSimEvents
	rdEvicted
	rdHitTokens
	rdPrefixTokens
	rdColdSpilled
	rdColdFetches
	rdMigrations
	rdNumReadings
)

func read(tr *tracer, o *outcome) readings {
	var r readings
	st := tr.totals()
	r[rdRouteNS] = float64(st.self[spanRoute])
	r[rdCoreArriveNS] = float64(st.coreArrive)
	r[rdBaselinesArriveNS] = float64(st.baselinesArrive)
	r[rdSimEvents] = float64(o.simEvents)
	if p := tr.policy; p != nil {
		r[rdRouteCalls], r[rdProbes], r[rdProbeNS] = float64(p.calls), float64(p.probes), float64(p.probeNS)
	}
	for _, e := range tr.engines {
		r[rdEngineEvents] += float64(e.events)
		r[rdInitNS] += float64(e.initNS)
	}
	if s := tr.sink; s != nil {
		r[rdObsEvents], r[rdObsNS] = float64(s.n), float64(s.ns)
	}
	// Env.Complete is the gateway's completion path only inside a fleet;
	// a single engine's callback is RunWithStats' record append. Under the
	// barrier runner (Shards >= 1) it only buffers the completion, which
	// the gateway replays at the next barrier, outside the span.
	if o.fleet {
		r[rdCompleteCalls], r[rdCompleteNS] = float64(st.n[spanComplete]), float64(st.self[spanComplete])
		r[rdEvicted], r[rdHitTokens], r[rdPrefixTokens] = float64(o.evicted), float64(o.hitTokens), float64(o.prefixTokens)
		r[rdColdSpilled], r[rdColdFetches], r[rdMigrations] = float64(o.coldSpilled), float64(o.coldFetch), float64(o.migrations)
	}
	return r
}

// sumReadings takes each reading's median over an input's traced
// iterations and sums over inputs.
func sumReadings(byInput [][]readings) readings {
	var sum readings
	for _, rs := range byInput {
		for f := range sum {
			vs := make([]float64, len(rs))
			for i := range rs {
				vs[i] = rs[i][f]
			}
			sum[f] += medianFloat(vs)
		}
	}
	return sum
}

// cpuClasses is a snapshot of the runtime's CPU-time estimates, in
// seconds. The runtime refreshes them at each GC.
type cpuClasses struct{ gc, user, scavenge float64 }

var cpuClassNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readCPUClasses() cpuClasses {
	s := make([]metrics.Sample, len(cpuClassNames))
	for i, n := range cpuClassNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), user: s[1].Value.Float64(), scavenge: s[2].Value.Float64()}
}

func (c cpuClasses) sub(o cpuClasses) cpuClasses {
	return cpuClasses{c.gc - o.gc, c.user - o.user, c.scavenge - o.scavenge}
}

func (c cpuClasses) add(o cpuClasses) cpuClasses {
	return cpuClasses{c.gc + o.gc, c.user + o.user, c.scavenge + o.scavenge}
}

// gcFraction is GC CPU over all CPU the program used.
func (c cpuClasses) gcFraction() float64 {
	total := c.gc + c.user + c.scavenge
	if total <= 0 {
		return 0
	}
	return c.gc / total
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runSeconds(it iteration) float64 { return it.run.Seconds() }

func medianFloat(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func seconds(ns float64) float64 { return ns / 1e9 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
