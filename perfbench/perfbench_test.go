package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"rtlock"
)

// tiny runs every workload in well under a second per unit.
var tiny = sizes{streamCount: 300, auditCount: 100, distCount: 300, exploreSeeds: 2}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, b := range benches {
		ours = append(ours, b.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// emits checks that res reports exactly the declared metrics, each with
// its declared unit.
func emits(t *testing.T, what string, res *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// TestTinyRuns runs every workload untraced and traced at tiny sizes. A
// traced run is correct only when every traced unit reproduces the
// untraced outcome exactly.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for i := range benches {
		b := &benches[i]
		t.Run(b.name, func(t *testing.T) {
			res, err := untracedRun(b, tiny, 1, 1, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			emits(t, "untraced", res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("untraced: %s = %v, want > 0", name, m.Value)
				}
			}

			res, err = tracedRun(b, tiny, 1, 1, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced run did not reproduce the untraced outcome")
			}
			emits(t, "traced", res, perLayer)
			for _, name := range []string{"sim.events_per_op", "journal.records_per_op", "trace.overhead"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("traced: %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// TestWiringMatchesFacade checks that the benchmark's hand-wired systems
// simulate exactly what the public facade does on the same inputs.
func TestWiringMatchesFacade(t *testing.T) {
	build := func(b *bench, tr *tracer) outcome {
		u, err := b.build(tiny, 3, tr)
		if err != nil {
			t.Fatal(err)
		}
		out, err := u.run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sum := func(s rtlock.Summary) outcome {
		return outcome{Processed: s.Processed, Committed: s.Committed, Missed: s.Missed, Restarts: s.Restarts}
	}

	stream, _ := benchByName("stream-C")
	res, err := rtlock.RunSingleSite(rtlock.SingleSiteConfig{
		Protocol: rtlock.Ceiling, MaxRawRecords: rawRecordCap,
		Workload: rtlock.WorkloadConfig{Seed: 3, Count: tiny.streamCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := build(stream, nil), sum(res.Summary); got != want {
		t.Errorf("stream-C: benchmark %+v, facade %+v", got, want)
	}

	aud, _ := benchByName("audit-HP")
	res, err = rtlock.RunSingleSite(rtlock.SingleSiteConfig{
		Protocol: rtlock.TwoPLHighPriority, Audit: true,
		Workload: rtlock.WorkloadConfig{Seed: 3, Count: tiny.auditCount, MeanSize: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sum(res.Summary)
	want.JournalHash = res.Journal.HashString()
	want.JournalRecords = res.Journal.Len()
	want.Violations, want.Flagged = countViolations(res.Violations)
	for _, tr := range []*tracer{nil, newTracer()} {
		if got := build(aud, tr); got != want {
			t.Errorf("audit-HP (traced=%v): benchmark %+v, facade %+v", tr != nil, got, want)
		}
	}

	d, _ := benchByName("dist-local")
	res, err = rtlock.RunDistributed(rtlock.DistributedConfig{
		Workload: rtlock.WorkloadConfig{Seed: 3, Count: tiny.distCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	want = sum(res.Summary)
	want.Messages = res.Messages
	if got := build(d, nil); got != want {
		t.Errorf("dist-local: benchmark %+v, facade %+v", got, want)
	}
}

// TestCheckCatchesMismatch pins the failure accounting: a unit whose
// outcome differs from the reference fails all its ops.
func TestCheckCatchesMismatch(t *testing.T) {
	r := &phaseResult{}
	good := outcome{Processed: 5, Committed: 4, Missed: 1}
	if !check("w", r, 0, false, 5, good, &good) {
		t.Fatalf("matching unit rejected: %v", r.problems)
	}
	bad := good
	bad.Restarts = 1
	if check("w", r, 1, false, 5, bad, &good) || r.correct() {
		t.Fatal("a unit differing from unit 0 passed the check")
	}
	r = &phaseResult{}
	if check("w", r, 0, false, 5, outcome{Processed: 4, Committed: 4}, nil) {
		t.Fatal("a unit that lost an op passed the check")
	}
	r = &phaseResult{}
	if check("w", r, 0, true, 9, outcome{Explored: 9, Frontier: 2}, nil) {
		t.Fatal("an exploration that did not exhaust passed the check")
	}
}

func TestParseTop(t *testing.T) {
	const top = `File: perfbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     1.20s 60.00% 60.00%      1.20s 60.00%  runtime.futex
     500ms 25.00% 85.00%      600ms 30.00%  rtlock/internal/sim.(*Kernel).Run
     200ms 10.00% 95.00%      200ms 10.00%  rtlock/internal/core.(*Ceiling).Acquire
     100ms  5.00%   100%      100ms  5.00%  internal/runtime/atomic.(*Uint32).Load
`
	got, err := parseTop(strings.NewReader(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime": 0.65, "sim": 0.25, "core": 0.10}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share %s = %v, want %v", k, got[k], v)
		}
	}
}
