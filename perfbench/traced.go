package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rtlock/internal/workload"
)

// layers are the packages whose share of the traced run's CPU profile is
// reported, by the last element of their import path.
var layers = []string{"sim", "core", "txn", "workload", "journal", "audit", "netsim", "dist", "place", "db", "explore"}

// tracedRun spends half the budget on an untraced phase and half on a
// traced one over the same inputs. Every traced unit must reproduce the
// untraced outcome. Timings that wrapping would distort (events per
// second, GC share) come from the untraced phase; the exact counts and
// the per-call layer timings come from the traced one.
func tracedRun(b *bench, sz sizes, seed int64, budget time.Duration, outDir string, log io.Writer) (*result, error) {
	base, err := timedPhase(b, sz, seed, budget/2, nil, nil)
	if err != nil {
		return nil, err
	}
	report(log, b.name, "untraced", base)
	if base.first == nil {
		return nil, fmt.Errorf("%s: the untraced phase produced no checked outcome", b.name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, b.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	tr := newTracer()
	traced, err := timedPhase(b, sz, seed, budget/2, tr, base.first)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	report(log, b.name, "traced", traced)
	nextNs, err := timeNext(b, sz, seed, tr)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	spansPath := filepath.Join(outDir, b.name+".spans.jsonl")
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s traced: %d spans in %s (%d more not kept), CPU profile in %s\n",
		b.name, len(tr.spans), spansPath, tr.dropped, profPath)

	m := layerMetrics(&tr.stats, base, traced)
	m["workload.next_ns"] = metric{nextNs, "ns"}
	for _, l := range layers {
		m["cpu_share."+l] = metric{shares[l], "fraction"}
	}
	m["cpu_share.runtime"] = metric{shares["runtime"], "fraction"}
	return &result{
		Correct:   base.correct() && traced.correct(),
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// layerMetrics derives the per-layer metrics from the traced phase's
// aggregates.
func layerMetrics(s *layerStats, base, traced *phaseResult) map[string]metric {
	per := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	ops := s.ops
	eventsPerOp := per(s.events, ops)
	nsPerEvent := 0.0
	if eventsPerOp > 0 {
		nsPerEvent = 1e9 / median(base.opsPerS) / eventsPerOp
	}
	gcFrac := 0.0
	if base.totalCPU > 0 {
		gcFrac = base.gcCPU / base.totalCPU
	}
	overhead := 0.0
	if b := median(base.opsPerS); b > 0 {
		overhead = median(traced.opsPerS) / b
	}
	explored, distinct, cx := 0, 0, 0
	if f := traced.first; f != nil {
		explored, distinct, cx = f.Explored, f.Distinct, f.CX
	}
	return map[string]metric{
		"sim.ns_per_event":           {nsPerEvent, "ns"},
		"sim.events_per_op":          {eventsPerOp, "1/op"},
		"sim.spawns_per_op":          {per(s.spawns, ops), "1/op"},
		"sim.cpu_dispatches_per_op":  {per(s.dispatches, ops), "1/op"},
		"sim.cpu_preemptions_per_op": {per(s.preemptions, ops), "1/op"},
		"go.gc_cpu_frac":             {gcFrac, "fraction"},

		"core.acquire_ns":      {s.acquire.median(), "ns"},
		"core.release_ns":      {s.release.median(), "ns"},
		"core.register_ns":     {s.register.median(), "ns"},
		"core.requests_per_op": {per(s.requests, ops), "1/op"},
		"core.blocks_per_op":   {per(s.blocks, ops), "1/op"},
		"core.grant_ratio":     {per(s.grants, s.requests), "ratio"},
		"core.wounds_per_op":   {per(s.wounds, ops), "1/op"},

		"txn.commit_ratio":    {per(s.committed, s.processed), "ratio"},
		"txn.restarts_per_op": {per(s.restarts, ops), "1/op"},

		"journal.records_per_op":       {per(s.records, ops), "1/op"},
		"journal.bytes_per_record":     {per(s.bytes, s.records), "B"},
		"journal.encode_ns_per_record": {per(s.encodeNs, s.records), "ns"},
		"journal.hash_ns_per_record":   {per(s.hashNs, s.records), "ns"},

		"audit.replay_ns_per_record": {per(s.auditNs, s.audited), "ns"},
		"audit.violations":           {per(s.violations, int64(traced.units)), "count"},

		"netsim.msgs_per_op":   {per(s.msgs, ops), "1/op"},
		"dist.installs_per_op": {per(s.installs, ops), "1/op"},

		"explore.schedules":       {float64(explored), "count"},
		"explore.distinct_ratio":  {per(int64(distinct), int64(explored)), "ratio"},
		"explore.counterexamples": {float64(cx), "count"},
		"explore.run_p50_ms":      {quantile(s.schedules, 0.5), "ms"},
		"explore.run_p99_ms":      {quantile(s.schedules, 0.99), "ms"},

		"trace.overhead": {overhead, "ratio"},
	}
}

// timeNext times workload.Stream.Next on the workload's own parameters,
// in a loop of its own, for at least 200ms, one span per stream drawn.
func timeNext(b *bench, sz sizes, seed int64, tr *tracer) (float64, error) {
	p, err := b.params(sz, seed)
	if err != nil {
		return 0, err
	}
	var n, spent int64
	for i := int64(0); spent < int64(200*time.Millisecond); i++ {
		st, err := workload.NewStream(p)
		if err != nil {
			return 0, err
		}
		sp := tr.open("workload-next", i)
		t0 := tr.now()
		for st.Next() != nil {
			n++
		}
		spent += tr.now() - t0
		tr.close(sp)
	}
	return float64(spent) / float64(n), nil
}

// cpuShares groups the profile's flat CPU time by package with the
// toolchain's pprof and returns each layer's share of the total, keyed
// by layer name; "runtime" collects the Go runtime's packages.
func cpuShares(profile string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", exe, profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v\n%s", err, errb.String())
	}
	return parseTop(&out)
}

// parseTop reads `pprof -top` output: after the header line, each row is
// "flat flat% sum% cum cum% function".
func parseTop(r io.Reader) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(r)
	inRows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := parseDur(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		total += d
		flat[layerOf(strings.Join(f[5:], " "))] += d
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inRows || total == 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// layerOf maps a profiled function name to its layer: the last element
// of an rtlock/internal package, "runtime" for the Go runtime, or the
// package path otherwise.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "rtlock/internal/"):
		return strings.TrimPrefix(pkg, "rtlock/internal/")
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// parseDur parses a pprof duration such as "1.23s", "450ms" or "10us".
func parseDur(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"hrs", 3600}, {"mins", 60}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
