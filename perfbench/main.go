// Command perfbench is the simulator's benchmark. It runs one fixed-shape
// workload through the simulator's public entry points for a fixed time,
// checks that every simulated result is correct, and prints host-side
// metrics: end-to-end ones with --trace 0, per-layer ones (timed seams,
// counters and a CPU profile folded by layer) with --trace 1.
//
//	bash perfbench/run.sh --workload bigfleet-open --seed 42 --seconds 10 --trace 0
//
// --workload all runs every workload in turn. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it give each iteration, the simulated results
// and the metrics with their units. Each run also writes its result, with
// the configuration, seeds and revision that produced it, to --out, and a
// traced run adds its CPU profiles (one per input, for go tool pprof) and
// its spans. The exit code is 1 when any correctness check fails and 2 on
// bad arguments.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// expectedDigestsJSON holds each workload's run digest for the default
// seed and a held-out one, as hex strings: workload -> seed -> digest.
//
//go:embed expected_digests.json
var expectedDigestsJSON []byte

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	revision string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for result, profile and span files")
	fs.StringVar(&o.revision, "revision", "unknown", "source revision recorded with each result")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return o, errors.New("--workload is required")
	case traceFlag != 0 && traceFlag != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = traceFlag == 1
	return o, nil
}

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	expected, err := parseExpected(expectedDigestsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var ws []*benchWorkload
	if opts.workload == "all" {
		ws = workloads()
	} else {
		w, err := findWorkload(opts.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []*benchWorkload{w}
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	correct := true
	for _, w := range ws {
		rep := runWorkload(w, opts, expected[w.name])
		rep.print(os.Stdout)
		if err := rep.save(opts.out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			correct = false
		}
		correct = correct && rep.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// parseExpected reads the recorded digests: workload -> seed -> digest.
func parseExpected(data []byte) (map[string]map[int64]uint64, error) {
	var raw map[string]map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	out := make(map[string]map[int64]uint64, len(raw))
	for name, bySeed := range raw {
		out[name] = make(map[int64]uint64, len(bySeed))
		for seed, hex := range bySeed {
			s, err := strconv.ParseInt(seed, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("expected digests: %s seed %q: %w", name, seed, err)
			}
			d, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("expected digests: %s seed %d: %w", name, s, err)
			}
			out[name][s] = d
		}
	}
	return out, nil
}
