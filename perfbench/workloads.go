package main

import (
	"fmt"
	"strings"
	"sync/atomic"

	"rtlock/internal/audit"
	"rtlock/internal/db"
	"rtlock/internal/dist"
	"rtlock/internal/experiments"
	"rtlock/internal/explore"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/stats"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// sizes fixes how much work one unit of each workload does. A unit is
// the thing a run repeats until its time is up; every unit of a run is
// built from the same seed, so all of them must report the same outcome.
type sizes struct {
	streamCount  int // stream-C transactions per unit
	auditCount   int // audit-HP transactions per unit
	distCount    int // dist-local transactions per unit
	exploreSeeds int // explore-dfs workload seeds per unit, before the --seed extension
}

// benchSizes are the sizes the benchmark runs at: each unit takes
// roughly a second of host time, so a run repeats it several times.
var benchSizes = sizes{
	streamCount:  20000,
	auditCount:   3000,
	distCount:    20000,
	exploreSeeds: 40,
}

// outcome is the simulated result of one unit. Every field is
// deterministic for a given seed, so units and traced runs are checked
// against each other with ==.
type outcome struct {
	Processed, Committed, Missed, Restarts int
	Messages                               int
	JournalRecords                         int
	JournalHash                            string
	Violations                             int
	Flagged                                int // ops an auditor flagged
	Explored, Distinct, Pruned, Frontier   int
	Deepest                                int
	Counterexamples                        string
	CX                                     int
}

// unit is one built instance of a workload: ops is the number of ops it
// will complete, or -1 when that is known only from the outcome (the
// schedules an exploration executes), and run executes it.
type unit struct {
	ops int
	run func() (outcome, error)
	// hold keeps the finished unit's results reachable until the heap
	// is measured.
	hold any
}

// bench is one named workload. build constructs a unit from the seed,
// covering everything up to the first dispatched event; tr is nil for
// untraced runs.
type bench struct {
	name  string
	build func(sz sizes, seed int64, tr *tracer) (*unit, error)
	// params returns the generator parameters of the workload, for the
	// traced run's workload.next_ns loop.
	params func(sz sizes, seed int64) (workload.Params, error)
}

var benches = []bench{
	{
		name:   "stream-C",
		build:  buildStream,
		params: streamParams,
	},
	{
		name:   "audit-HP",
		build:  buildAudit,
		params: auditParams,
	},
	{
		name:   "dist-local",
		build:  buildDist,
		params: distParams,
	},
	{
		name:   "explore-dfs",
		build:  buildExplore,
		params: exploreParams,
	},
}

func benchByName(name string) (*bench, error) {
	var names []string
	for i := range benches {
		if benches[i].name == name {
			return &benches[i], nil
		}
		names = append(names, benches[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// The single-site workloads use the facade's defaults: 200 objects,
// 10ms CPU and 20ms I/O per object, 450ms mean interarrival, slack 4-8.
const (
	singleDB       = 200
	singleCPU      = 10 * sim.Millisecond
	singleIO       = 20 * sim.Millisecond
	singleInterarr = 450 * sim.Millisecond
	rawRecordCap   = 1024
	// traceSampleEvery spaces the traced run's registry samples far
	// apart: only the counters' final values are read.
	traceSampleEvery = sim.Duration(1) << 50
)

func singleParams(seed int64, count, size int) (workload.Params, error) {
	cat, err := db.NewCatalog(1, singleDB)
	if err != nil {
		return workload.Params{}, err
	}
	return workload.Params{
		Seed:             seed,
		Catalog:          cat,
		Count:            count,
		MeanInterarrival: singleInterarr,
		MeanSize:         size,
		PerObjCost:       singleCPU + singleIO,
		SlackMin:         4,
		SlackMax:         8,
	}, nil
}

func streamParams(sz sizes, seed int64) (workload.Params, error) {
	return singleParams(seed, sz.streamCount, 10)
}

func auditParams(sz sizes, seed int64) (workload.Params, error) {
	return singleParams(seed, sz.auditCount, 20)
}

// singleKey is the facade's journal config key for a single-site run,
// so a journal here hashes the same as one from rtlock.RunSingleSite.
func singleKey(proto experiments.Protocol, p workload.Params) string {
	return fmt.Sprintf("single/%s/db=%d/cpu=%d/io=%d/count=%d/size=%d/ro=%g",
		proto, singleDB, int64(singleCPU), int64(singleIO), p.Count, p.MeanSize, p.ReadOnlyFrac)
}

// newSingle wires a txn.System the way rtlock.RunSingleSite does. The
// traced run wires it here rather than through the facade because the
// facade takes no manager, and the manager is what the tracer wraps.
func newSingle(proto experiments.Protocol, p workload.Params, jrn *journal.Journal, rec *recorder) (*txn.System, error) {
	newMgr, disc, err := experiments.ManagerFor(proto)
	if err != nil {
		return nil, err
	}
	stream, err := workload.NewStream(p)
	if err != nil {
		return nil, err
	}
	cfg := txn.Config{
		CPUPerObj:       singleCPU,
		IOPerObj:        singleIO,
		CPUDiscipline:   disc,
		NewManager:      newMgr,
		Journal:         jrn,
		Metrics:         rec.registry(),
		MetricsInterval: traceSampleEvery,
		MaxRawRecords:   rawRecordCap,
	}
	if rec != nil {
		cfg.NewManager = rec.wrapManager(newMgr)
		if cfg.Journal == nil {
			cfg.Journal = journal.New(p.Seed, singleKey(proto, p))
		}
	}
	sys, err := txn.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	sys.LoadStream(stream)
	return sys, nil
}

// runSingle runs a built system and records its counts.
func runSingle(sys *txn.System, ops int, rec *recorder) outcome {
	var sum stats.Summary
	rec.phase("kernel-run", func() { sum = sys.Run() })
	rec.collect(ops, sum.Processed, sum.Committed, sum.Restarts)
	return outcome{
		Processed: sum.Processed,
		Committed: sum.Committed,
		Missed:    sum.Missed,
		Restarts:  sum.Restarts,
	}
}

func buildStream(sz sizes, seed int64, tr *tracer) (*unit, error) {
	p, err := streamParams(sz, seed)
	if err != nil {
		return nil, err
	}
	rec := tr.newRecorder("unit", tr.unitID())
	sys, err := newSingle(experiments.ProtoCeiling, p, nil, rec)
	if err != nil {
		return nil, err
	}
	u := &unit{ops: p.Count, hold: sys}
	u.run = func() (outcome, error) {
		defer rec.finish()
		out := runSingle(sys, p.Count, rec)
		if rec != nil {
			rec.journalStats(sys.K.Journal())
		}
		return out, nil
	}
	return u, nil
}

func buildAudit(sz sizes, seed int64, tr *tracer) (*unit, error) {
	p, err := auditParams(sz, seed)
	if err != nil {
		return nil, err
	}
	rec := tr.newRecorder("unit", tr.unitID())
	jrn := journal.New(seed, singleKey(experiments.ProtoTwoPLHP, p))
	sys, err := newSingle(experiments.ProtoTwoPLHP, p, jrn, rec)
	if err != nil {
		return nil, err
	}
	u := &unit{ops: p.Count, hold: jrn}
	u.run = func() (outcome, error) {
		defer rec.finish()
		out := runSingle(sys, p.Count, rec)
		out.JournalHash = rec.journalStats(jrn)
		out.JournalRecords = jrn.Len()
		vs := rec.audit(jrn, audit.ForManager(sys.Mgr.Name()))
		out.Violations, out.Flagged = countViolations(vs)
		return out, nil
	}
	return u, nil
}

// countViolations returns the number of violations and of distinct
// transactions they flag (a violation not tied to a transaction counts
// as one flagged op of its own).
func countViolations(vs []audit.Violation) (n, flagged int) {
	seen := make(map[int64]bool)
	for _, v := range vs {
		if v.Tx == 0 {
			flagged++
			continue
		}
		if !seen[v.Tx] {
			seen[v.Tx] = true
			flagged++
		}
	}
	return len(vs), flagged
}

// The distributed workload uses the facade's defaults: 3 sites, 200
// objects, 20ms one-way delay, 10ms CPU per object, 30ms mean
// interarrival, mean size 6.
const (
	distSites    = 3
	distDB       = 200
	distDelay    = 20 * sim.Millisecond
	distCPU      = 10 * sim.Millisecond
	distInterarr = 30 * sim.Millisecond
	distSize     = 6
)

func newCluster(jrn *journal.Journal, reg *metrics.Registry) (*dist.Cluster, error) {
	return dist.NewCluster(dist.Config{
		Approach:        dist.LocalCeiling,
		Sites:           distSites,
		Objects:         distDB,
		CommDelay:       distDelay,
		CPUPerObj:       distCPU,
		Journal:         jrn,
		Metrics:         reg,
		MetricsInterval: traceSampleEvery,
		MaxRawRecords:   rawRecordCap,
	})
}

func distParamsFor(cat *db.Catalog, sz sizes, seed int64) workload.Params {
	return workload.Params{
		Seed:             seed,
		Catalog:          cat,
		Count:            sz.distCount,
		MeanInterarrival: distInterarr,
		MeanSize:         distSize,
		PerObjCost:       distCPU,
		SlackMin:         4,
		SlackMax:         8,
		LocalWriteSets:   true,
	}
}

func distParams(sz sizes, seed int64) (workload.Params, error) {
	c, err := newCluster(nil, nil)
	if err != nil {
		return workload.Params{}, err
	}
	return distParamsFor(c.Catalog, sz, seed), nil
}

func buildDist(sz sizes, seed int64, tr *tracer) (*unit, error) {
	rec := tr.newRecorder("unit", tr.unitID())
	var jrn *journal.Journal
	if rec != nil {
		jrn = journal.New(seed, fmt.Sprintf("dist/%s/sites=%d/db=%d/delay=%d/count=%d/size=%d/ro=%g/mv=%t",
			dist.LocalCeiling, distSites, distDB, int64(distDelay), sz.distCount, distSize, 0.0, false))
	}
	c, err := newCluster(jrn, rec.registry())
	if err != nil {
		return nil, err
	}
	var load []*workload.Txn
	rec.phase("workload-generate", func() {
		load, err = workload.Generate(distParamsFor(c.Catalog, sz, seed))
	})
	if err != nil {
		return nil, err
	}
	c.Load(load)
	u := &unit{ops: len(load), hold: c}
	u.run = func() (outcome, error) {
		defer rec.finish()
		var sum stats.Summary
		rec.phase("kernel-run", func() { sum = c.Run() })
		rec.collect(len(load), sum.Processed, sum.Committed, sum.Restarts)
		if rec != nil {
			rec.journalStats(jrn)
		}
		return outcome{
			Processed: sum.Processed,
			Committed: sum.Committed,
			Missed:    sum.Missed,
			Restarts:  sum.Restarts,
			Messages:  c.Net.Sent,
		}, nil
	}
	return u, nil
}

// The explore target's shape: explore.SingleSiteTarget's defaults for
// protocol C. The traced run rebuilds the same target with its layers
// wrapped; the outcome check proves the two agree.
const (
	exploreCount    = 24
	exploreDB       = 8
	exploreSize     = 5
	exploreCPU      = 5 * sim.Millisecond
	exploreInterarr = 10 * sim.Millisecond
	exploreRO       = 0.4
	exploreDepth    = 24
	exploreBranch   = 3
	exploreWorkers  = 2
	// exploreBudget is far above any seed's bounded tree, so every
	// exploration runs to exhaustion (Frontier 0 is checked).
	exploreBudget = 1 << 20
)

// exploreBlock is the contiguous block of workload seeds one unit
// explores: 1..exploreSeeds+seed%8. It always starts at 1 and always
// covers 1..exploreSeeds; the benchmark seed only extends it.
func exploreBlock(sz sizes, seed int64) int {
	s := seed % 8
	if s < 0 {
		s = -s
	}
	return sz.exploreSeeds + int(s)
}

func exploreParams(sz sizes, seed int64) (workload.Params, error) {
	cat, err := db.NewCatalog(1, exploreDB)
	if err != nil {
		return workload.Params{}, err
	}
	return workload.Params{
		Seed:             seed,
		Catalog:          cat,
		Count:            exploreCount,
		MeanInterarrival: exploreInterarr,
		MeanSize:         exploreSize,
		ReadOnlyFrac:     exploreRO,
		PerObjCost:       exploreCPU,
		SlackMin:         4,
		SlackMax:         8,
	}, nil
}

func exploreOptions() explore.Options {
	return explore.Options{
		Strategy:  explore.DFS,
		Schedules: exploreBudget,
		MaxDepth:  exploreDepth,
		Branch:    exploreBranch,
		Workers:   exploreWorkers,
	}
}

func buildExplore(sz sizes, seed int64, tr *tracer) (*unit, error) {
	newMgr, disc, err := experiments.ManagerFor(experiments.ProtoCeiling)
	if err != nil {
		return nil, err
	}
	n := exploreBlock(sz, seed)
	targets := make([]explore.Target, n)
	// flagged counts the explored schedules whose audit found a
	// violation: each is a failed op.
	var flagged atomic.Int64
	for i := range targets {
		s := int64(i + 1)
		if tr != nil {
			targets[i], err = tr.exploreTarget(sz, s, newMgr, disc)
		} else {
			targets[i], err = explore.SingleSiteTarget(explore.SingleSiteOpts{
				Proto:      string(experiments.ProtoCeiling),
				NewManager: newMgr,
				Discipline: disc,
				Seed:       s,
			})
		}
		if err != nil {
			return nil, err
		}
		run := targets[i].Run
		targets[i].Run = func(ch sim.Chooser) (*explore.Outcome, error) {
			out, err := run(ch)
			if err == nil && len(out.Violations) > 0 {
				flagged.Add(1)
			}
			return out, err
		}
	}
	reports := make([]*explore.Report, n)
	u := &unit{ops: -1, hold: reports}
	u.run = func() (outcome, error) {
		var out outcome
		var cx []string
		for i, t := range targets {
			sp := tr.openSeed(int64(i + 1))
			rep, err := explore.Run(t, exploreOptions())
			tr.closeSeed(sp)
			if err != nil {
				return outcome{}, fmt.Errorf("explore seed %d: %w", i+1, err)
			}
			reports[i] = rep
			out.Explored += rep.Explored
			out.Distinct += rep.Distinct
			out.Pruned += rep.Pruned
			out.Frontier += rep.Frontier
			out.Deepest = max(out.Deepest, rep.Deepest)
			for _, c := range rep.Counterexamples {
				cx = append(cx, fmt.Sprintf("seed=%d/%s/%s", i+1, c.Rule, c.JournalHash))
			}
		}
		out.Counterexamples = strings.Join(cx, ",")
		out.CX = len(cx)
		out.Flagged = int(flagged.Load())
		return out, nil
	}
	return u, nil
}
