package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run times up to setupRepeats extra set-ups before its timed phase,
// stopping early once they have taken setupBudget (but timing at least
// five); setup_s is the median over these and every unit's set-up.
const (
	setupRepeats = 41
	setupBudget  = time.Second
)

// phaseResult is what one timed phase measured.
type phaseResult struct {
	units      int
	opsPerS    []float64 // per unit, with host steal taken out of the wall time
	rawOpsPerS []float64 // per unit, plain wall time
	cpuUsOp    []float64 // per unit
	allocsOp   []float64 // per unit
	setupS     []float64
	gcCPU      float64 // GC CPU seconds over the units' runs
	totalCPU   float64 // all CPU seconds over the units' runs
	attempted  int
	failed     int
	problems   []string
	first      *outcome
	heapMB     float64
	steal      float64 // share of the machine's CPU time the host took
}

func (r *phaseResult) correct() bool { return len(r.problems) == 0 }

func (r *phaseResult) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostSteal reads the machine's cumulative steal and total CPU ticks
// from /proc/stat. On a virtual machine the host may run other guests on
// our CPUs; that stolen time stretches every wall-clock timing by an
// amount that has nothing to do with the program (it ranged from 1% to
// 28% of CPU time from minute to minute on the 2-vCPU machine the
// benchmark was sized on). It returns zeros where /proc/stat is missing.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// gcSample reads the runtime's cumulative GC and total CPU estimates.
func gcSample() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// timeSetups builds and drops untraced units, timing each build.
func timeSetups(b *bench, sz sizes, seed int64) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < setupRepeats && (i < 5 || time.Since(start) < setupBudget); i++ {
		// Like every unit's, each set-up starts from a collected heap, so
		// the previous one's garbage does not bill it for a GC cycle.
		runtime.GC()
		t0 := time.Now()
		u, err := b.build(sz, seed, nil)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.name, err)
		}
		runtime.KeepAlive(u)
		out = append(out, d)
	}
	return out, nil
}

// timedPhase repeats units of the workload until budget has passed. It
// does not start a unit the last one's length says would end more than
// half a unit past the budget, but always runs at least one. ref, when
// set, is the outcome every unit must reproduce (the untraced run's, for
// a traced phase).
func timedPhase(b *bench, sz sizes, seed int64, budget time.Duration, tr *tracer, ref *outcome) (*phaseResult, error) {
	r := &phaseResult{}
	start := time.Now()
	steal0, total0 := hostSteal()
	var held *unit
	var last time.Duration
	for i := 0; ; i++ {
		held = nil
		// Collect the previous unit's garbage outside the timing, so
		// every unit starts from the same heap.
		runtime.GC()
		if tr != nil {
			tr.unit = int64(i)
		}
		t0 := time.Now()
		u, err := b.build(sz, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.name, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, all0 := gcSample()
		st0, tot0 := hostSteal()
		c0 := cpuSeconds()
		t1 := time.Now()
		out, err := u.run()
		el := time.Since(t1)
		c1 := cpuSeconds()
		st1, tot1 := hostSteal()
		gc1, all1 := gcSample()
		runtime.ReadMemStats(&m1)
		steal := 0.0
		if tot1 > tot0 {
			steal = min((st1-st0)/(tot1-tot0), 0.9)
		}

		ops := u.ops
		if ops < 0 {
			ops = out.Explored
		}
		r.units++
		r.attempted += max(ops, 1)
		switch {
		case err != nil:
			r.failed += max(ops, 1)
			r.problem("%s unit %d: %v", b.name, i, err)
		case check(b.name, r, i, u.ops < 0, ops, out, ref):
			r.failed += out.Flagged
		default:
			r.failed += ops
		}
		if ops > 0 && el > 0 {
			r.rawOpsPerS = append(r.rawOpsPerS, float64(ops)/el.Seconds())
			r.opsPerS = append(r.opsPerS, float64(ops)/(el.Seconds()*(1-steal)))
			r.cpuUsOp = append(r.cpuUsOp, (c1-c0)*1e6/float64(ops))
			r.allocsOp = append(r.allocsOp, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
		}
		r.gcCPU += gc1 - gc0
		r.totalCPU += all1 - all0
		held = u
		last = time.Since(t0)
		if el := time.Since(start); el >= budget || el+last > budget+last/2 {
			break
		}
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		r.steal = (steal1 - steal0) / (total1 - total0)
	}
	// Live heap with the last unit's results still held; the forced GCs
	// are outside every timing. The second one empties the sync.Pool
	// caches the first only moves aside, so pooled buffers, whose
	// survival depends on GC timing, are not counted as held.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(held)
	return r, nil
}

// check verifies one unit's simulated outcome: every op finished (an
// exploration ran to exhaustion), and the outcome equals the run's first
// unit (same seed, same inputs) and the reference, if any. A unit that
// fails a check counts all its ops as failed.
func check(name string, r *phaseResult, i int, explored bool, ops int, out outcome, ref *outcome) bool {
	fail := func(format string, args ...any) bool {
		r.problem("%s unit %d: "+format, append([]any{name, i}, args...)...)
		return false
	}
	switch {
	case explored && (out.Explored == 0 || out.Frontier != 0):
		return fail("exploration not exhausted: explored %d, frontier %d", out.Explored, out.Frontier)
	case !explored && (out.Processed != ops || out.Committed+out.Missed != ops):
		return fail("%d ops, but processed %d, committed %d, missed %d", ops, out.Processed, out.Committed, out.Missed)
	}
	if r.first == nil {
		o := out
		r.first = &o
	} else if out != *r.first {
		return fail("outcome differs from unit 0 on the same inputs:\n  unit 0: %+v\n  unit %d: %+v", *r.first, i, out)
	}
	if ref != nil && out != *ref {
		return fail("traced outcome differs from untraced:\n  untraced: %+v\n  traced:   %+v", *ref, out)
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}
