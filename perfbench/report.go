package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says which configuration, seed and revision produced a
// result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	InputSeeds []int64 `json:"input_seeds"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Shards     int     `json:"shards"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
}

// simulated is what the simulator computed for one input. These results
// are checked, not optimised, so they are printed beside the metrics
// rather than as metrics.
type simulated struct {
	Seed          int64   `json:"seed"`
	Requests      int     `json:"requests"`
	Goodput       float64 `json:"goodput_req_per_s"`
	SLOAttainment float64 `json:"slo_attainment"`
	TokenHitRatio float64 `json:"token_hit_ratio"`
	Makespan      string  `json:"makespan"`
	Digest        string  `json:"digest"`
}

// report is one workload's result.
type report struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Completed  int               `json:"completed"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Failures   []string          `json:"failures,omitempty"`
	RunDigest  string            `json:"run_digest"`
	Simulated  []simulated       `json:"simulated"`
	Provenance provenance        `json:"provenance"`
	Iterations []string          `json:"iterations"`
	// profile is the folded CPU profile of a traced run (nil otherwise).
	profile *cpuProfile
}

func (r *report) fail(requests int, format string, args ...any) {
	r.Failed += requests
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines, then the result line.
func (r *report) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "perfbench workload=%s seed=%d inputs=%v seconds=%g trace=%v shards=%d nproc=%d gomaxprocs=%d go=%s revision=%s\n",
		p.Workload, p.Seed, p.InputSeeds, p.Seconds, p.Trace, p.Shards, p.NProc, p.GoMaxProcs, p.GoVersion, p.Revision)
	for _, it := range r.Iterations {
		fmt.Fprintln(w, "  "+it)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
	for _, s := range r.Simulated {
		fmt.Fprintf(w, "simulated input %d: %d requests, goodput %.4f req/s, SLO attainment %.4f, token hit ratio %.4f, makespan %s, digest %s\n",
			s.Seed, s.Requests, s.Goodput, s.SLOAttainment, s.TokenHitRatio, s.Makespan, s.Digest)
	}
	fmt.Fprintf(w, "run digest %s; requests: attempted %d, completed %d, failed %d\n", r.RunDigest, r.Attempted, r.Completed, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.profile != nil {
		fmt.Fprintln(w, "top CPU by function, runtime callees included (share of profiled samples):")
		for _, f := range r.profile.top(15) {
			fmt.Fprintf(w, "  %6.2f%%  %-14s %s\n", 100*float64(r.profile.charged[f])/float64(r.profile.total), layerOf(f), f.name)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintln(w, string(line))
}

// save writes the report, provenance included, as a JSON artifact.
func (r *report) save(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.base()+".json"), data, 0o644)
}

func (r *report) base() string {
	mode := "e2e"
	if r.Provenance.Trace {
		mode = "traced"
	}
	return fmt.Sprintf("%s-seed%d-%s", r.Provenance.Workload, r.Provenance.Seed, mode)
}

func (r *report) addSimulated(in *input, o *outcome) {
	r.Simulated = append(r.Simulated, simulated{
		Seed:          in.seed,
		Requests:      o.completed,
		Goodput:       o.goodput,
		SLOAttainment: o.slo,
		TokenHitRatio: o.hitRatio,
		Makespan:      o.makespan.Round(time.Millisecond).String(),
		Digest:        fmt.Sprintf("%016x", o.digest),
	})
}
