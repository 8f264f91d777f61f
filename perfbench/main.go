// Command perfbench measures the simulator's host cost on four named
// workloads and checks the simulated outcomes while it does.
//
// Untraced, it prints the end-to-end metrics: setup_s, ops_per_s,
// cpu_us_per_op, allocs_per_op and heap_live_mb. With -trace 1 it runs
// the same workload twice, untraced and then with every layer wrapped,
// and prints the per-layer metrics; the traced run must reproduce the
// untraced outcome exactly. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload stream-C -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream-C, audit-HP, dist-local or explore-dfs")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	out := fs.String("out", ".bench_build/trace", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	b, err := benchByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = tracedRun(b, benchSizes, *seed, budget, *out, stderr)
	} else {
		res, err = untracedRun(b, benchSizes, *seed, budget, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, b.name, res)
	return 0
}

func untracedRun(b *bench, sz sizes, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	setups, err := timeSetups(b, sz, seed)
	if err != nil {
		return nil, err
	}
	r, err := timedPhase(b, sz, seed, budget, nil, nil)
	if err != nil {
		return nil, err
	}
	report(log, b.name, "untraced", r)
	return &result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(append(setups, r.setupS...)), "s"},
			"ops_per_s":     {median(r.opsPerS), "1/s"},
			"cpu_us_per_op": {median(r.cpuUsOp), "us"},
			"allocs_per_op": {median(r.allocsOp), "count"},
			"heap_live_mb":  {r.heapMB, "MB"},
		},
	}, nil
}

func report(log io.Writer, name, kind string, r *phaseResult) {
	fmt.Fprintf(log, "%s %s: %d units, %d ops attempted, %d failed, host steal %.0f%%\n",
		name, kind, r.units, r.attempted, r.failed, 100*r.steal)
	for _, s := range []struct {
		what string
		xs   []float64
	}{{"ops/s, steal taken out", r.opsPerS}, {"ops/s, plain wall time", r.rawOpsPerS}, {"CPU us/op", r.cpuUsOp}} {
		fmt.Fprintf(log, "  per-unit %s (median %.4g):", s.what, median(s.xs))
		for _, v := range s.xs {
			fmt.Fprintf(log, " %.4g", v)
		}
		fmt.Fprintln(log)
	}
	for _, p := range r.problems {
		fmt.Fprintln(log, "  check failed:", p)
	}
}

// printResult prints one "name value unit" line per metric, then the
// JSON result as the last line.
func printResult(w io.Writer, name string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%s %-28s %14.6g %s\n", name, k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or infinite value can fail to encode, and that is
		// a bug in a metric's computation.
		panic(errors.Join(errors.New("perfbench: encoding result"), err))
	}
	fmt.Fprintln(w, string(line))
}
