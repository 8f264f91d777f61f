package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtlock/internal/audit"
	"rtlock/internal/core"
	"rtlock/internal/explore"
	"rtlock/internal/journal"
	"rtlock/internal/metrics"
	"rtlock/internal/sim"
	"rtlock/internal/txn"
	"rtlock/internal/workload"
)

// The tracer measures each layer from outside it: it wraps the lock
// manager (through txn.Config.NewManager), every auditor, and the
// explore target's Run, and opens phase spans around workload
// generation, the kernel run, encoding, hashing and auditing. Exact
// work counts come from the journal and a metrics registry attached to
// every traced simulation.

// span is one timed interval. Times are nanoseconds since the tracer
// started; parent indexes the tracer's span list (-1 for a root); id is
// the transaction id, schedule index or unit index the span belongs to.
type span struct {
	name       string
	parent     int32
	id         int64
	start, end int64
}

// maxSpans bounds the spans kept for writing out; layer aggregates are
// computed from every call, kept or not.
const maxSpans = 200000

// calls holds the duration of every call of one kind, in ns. Layer
// timings report the median: a mean is swamped by the rare call that a
// GC pause or a journal regrowth lands in.
type calls []int64

func (c calls) median() float64 {
	xs := make([]float64, len(c))
	for i, v := range c {
		xs[i] = float64(v)
	}
	return median(xs)
}

// layerStats are the per-layer aggregates of one or more simulations.
type layerStats struct {
	acquire, release, register calls

	ops, processed, committed, restarts int64

	events, spawns, dispatches, preemptions int64
	requests, grants, blocks, wounds        int64
	msgs, installs                          int64

	records, bytes   int64
	encodeNs, hashNs int64 // summed over journals
	auditNs, audited int64 // replay time and records of the audited journals
	violations       int64

	schedules []float64 // per-schedule Target.Run wall time, ms
}

func (s *layerStats) merge(o *layerStats) {
	s.acquire = append(s.acquire, o.acquire...)
	s.release = append(s.release, o.release...)
	s.register = append(s.register, o.register...)
	s.ops += o.ops
	s.processed += o.processed
	s.committed += o.committed
	s.restarts += o.restarts
	s.events += o.events
	s.spawns += o.spawns
	s.dispatches += o.dispatches
	s.preemptions += o.preemptions
	s.requests += o.requests
	s.grants += o.grants
	s.blocks += o.blocks
	s.wounds += o.wounds
	s.msgs += o.msgs
	s.installs += o.installs
	s.records += o.records
	s.bytes += o.bytes
	s.encodeNs += o.encodeNs
	s.hashNs += o.hashNs
	s.auditNs += o.auditNs
	s.audited += o.audited
	s.violations += o.violations
	s.schedules = append(s.schedules, o.schedules...)
}

type tracer struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	stats   layerStats

	// parent is the span new recorders hang under: the current unit or
	// explored seed. It is set by the driving goroutine before the
	// simulations that read it start.
	parent atomic.Int32
	// unit is the index of the unit being built, the id of its spans;
	// only the driving goroutine touches it.
	unit int64
}

func newTracer() *tracer {
	tr := &tracer{base: time.Now()}
	tr.parent.Store(-1)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// open starts a structural span (unit, seed) and returns its index.
// Structural spans are few and always kept.
func (tr *tracer) open(name string, id int64) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{name: name, parent: tr.parent.Load(), id: id, start: tr.now(), end: -1})
	return int32(len(tr.spans) - 1)
}

func (tr *tracer) close(i int32) {
	tr.mu.Lock()
	tr.spans[i].end = tr.now()
	tr.mu.Unlock()
}

// recorder collects the spans and aggregates of one simulation, which
// runs on one goroutine at a time, so recording takes no lock; finish
// merges it into the tracer.
type recorder struct {
	tr     *tracer
	id     int64
	parent int32
	spans  []span
	top    int32 // the recorder's own root span
	cur    int32 // open phase span, parent of lock-call spans
	reg    *metrics.Registry
	stats  layerStats
}

// newRecorder returns a recorder for one simulation, or nil when
// tracing is off. Every recorder method is a plain call-through on nil.
func (tr *tracer) newRecorder(name string, id int64) *recorder {
	if tr == nil {
		return nil
	}
	reg := metrics.New()
	reg.SetRetention(1)
	r := &recorder{tr: tr, id: id, parent: tr.parent.Load(), reg: reg}
	r.top = r.record(name, id, -1, tr.now(), -1)
	r.cur = r.top
	return r
}

func (r *recorder) registry() *metrics.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

func (r *recorder) record(name string, id int64, parent int32, start, end int64) int32 {
	r.spans = append(r.spans, span{name: name, parent: parent, id: id, start: start, end: end})
	return int32(len(r.spans) - 1)
}

// phase runs fn inside a named span.
func (r *recorder) phase(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	i := r.record(name, r.id, r.top, r.tr.now(), 0)
	r.cur = i
	fn()
	r.spans[i].end = r.tr.now()
	r.cur = r.top
}

// collect reads the exact work counts of a finished simulation from its
// registry and summary.
func (r *recorder) collect(ops int, processed, committed, restarts int) {
	if r == nil {
		return
	}
	c := func(name string, labels ...metrics.Label) int64 {
		return r.reg.Counter(name, "", labels...).Value()
	}
	s := &r.stats
	s.ops += int64(ops)
	s.processed += int64(processed)
	s.committed += int64(committed)
	s.restarts += int64(restarts)
	s.events += c("sim_events_total")
	s.spawns += c("sim_procs_spawned_total")
	s.dispatches += c("cpu_dispatches_total")
	s.preemptions += c("cpu_preemptions_total")
	s.requests += c("lock_requests_total")
	s.grants += c("lock_grants_total")
	s.blocks += c("lock_blocks_total", metrics.L("kind", "ceiling")) +
		c("lock_blocks_total", metrics.L("kind", "conflict"))
	s.wounds += c("lock_wounds_total")
	s.msgs += c("net_msgs_sent_total")
	s.installs += c("repl_installs_total")
}

// countWriter counts the bytes of an encoding without keeping them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// journalStats times one binary encoding and one hash of the journal,
// and returns the hash. The encoding is extra work of the traced run
// only; the hash replaces the one the workload computes itself.
func (r *recorder) journalStats(j *journal.Journal) string {
	if r == nil {
		return j.HashString()
	}
	var w countWriter
	var h string
	r.phase("encode", func() { _ = j.EncodeBinary(&w) }) // countWriter never fails
	r.stats.encodeNs += r.spans[len(r.spans)-1].dur()
	r.phase("hash", func() { h = j.HashString() })
	r.stats.hashNs += r.spans[len(r.spans)-1].dur()
	r.stats.records += int64(j.Len())
	r.stats.bytes += w.n
	return h
}

func (s span) dur() int64 { return s.end - s.start }

// audit replays the journal through the auditors, each alone in its own
// span. Stably sorting the union by sequence number yields exactly
// audit.Run's result over all of them.
func (r *recorder) audit(j *journal.Journal, auds []audit.Auditor) []audit.Violation {
	if r == nil {
		return audit.Run(j, auds...)
	}
	var out []audit.Violation
	r.stats.audited += int64(j.Len())
	for _, a := range auds {
		r.phase("audit/"+a.Name(), func() { out = append(out, audit.Run(j, a)...) })
		r.stats.auditNs += r.spans[len(r.spans)-1].dur()
	}
	r.stats.violations += int64(len(out))
	sort.SliceStable(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// coreManager is the lock-manager constructor txn.Config takes.
type coreManager = func(*sim.Kernel) core.Manager

// wrapManager returns a constructor whose managers time every call.
func (r *recorder) wrapManager(newMgr coreManager) coreManager {
	return func(k *sim.Kernel) core.Manager {
		return &tracedManager{
			Manager: newMgr(k),
			rec:     r,
			events:  k.Metrics().Counter("sim_events_total", ""),
		}
	}
}

// tracedManager times the lock manager's calls. An Acquire counts as
// parked when the kernel dispatched events during it: the caller's
// process was suspended and other processes ran, so its wall time is
// not the manager's.
type tracedManager struct {
	core.Manager
	rec    *recorder
	events metrics.Counter
}

func (m *tracedManager) Register(tx *core.TxState) {
	t0 := m.rec.tr.now()
	m.Manager.Register(tx)
	t1 := m.rec.tr.now()
	m.rec.stats.register = append(m.rec.stats.register, t1-t0)
	m.rec.record("core/register", tx.ID, m.rec.cur, t0, t1)
}

func (m *tracedManager) Acquire(p *sim.Proc, tx *core.TxState, obj core.ObjectID, mode core.Mode) error {
	e0 := m.events.Value()
	t0 := m.rec.tr.now()
	err := m.Manager.Acquire(p, tx, obj, mode)
	t1 := m.rec.tr.now()
	name := "core/acquire"
	if m.events.Value() != e0 {
		name = "core/acquire-parked"
	} else {
		m.rec.stats.acquire = append(m.rec.stats.acquire, t1-t0)
	}
	m.rec.record(name, tx.ID, m.rec.cur, t0, t1)
	return err
}

func (m *tracedManager) ReleaseAll(tx *core.TxState) {
	t0 := m.rec.tr.now()
	m.Manager.ReleaseAll(tx)
	t1 := m.rec.tr.now()
	m.rec.stats.release = append(m.rec.stats.release, t1-t0)
	m.rec.record("core/release", tx.ID, m.rec.cur, t0, t1)
}

// finish merges the recorder into the tracer: its aggregates always,
// its spans while the span budget lasts.
func (r *recorder) finish() {
	if r == nil {
		return
	}
	tr := r.tr
	r.spans[r.top].end = tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.stats.merge(&r.stats)
	keep := min(len(r.spans), max(0, maxSpans-len(tr.spans)))
	tr.dropped += len(r.spans) - keep
	off := int32(len(tr.spans))
	for _, s := range r.spans[:keep] {
		if s.parent < 0 {
			s.parent = r.parent
		} else if s.parent < int32(keep) {
			s.parent += off
		} else {
			s.parent = r.parent
		}
		tr.spans = append(tr.spans, s)
	}
}

// exploreTarget rebuilds explore.SingleSiteTarget's protocol-C target
// with its layers wrapped: same catalog, workload, journal key and
// auditors, so its schedules hash identically to the plain target's.
func (tr *tracer) exploreTarget(sz sizes, seed int64, newMgr coreManager, disc sim.Discipline) (explore.Target, error) {
	p, err := exploreParams(sz, seed)
	if err != nil {
		return explore.Target{}, err
	}
	var load []*workload.Txn
	genStart := tr.now()
	load, err = workload.Generate(p)
	if err != nil {
		return explore.Target{}, err
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name: "workload-generate", parent: tr.parent.Load(), id: seed, start: genStart, end: tr.now()})
	tr.mu.Unlock()
	key := fmt.Sprintf("explore/single/%s/db=%d/count=%d/size=%d/ro=%g",
		"C", exploreDB, exploreCount, exploreSize, exploreRO)
	var next atomic.Int64
	return explore.Target{
		Name: "single/C",
		Run: func(ch sim.Chooser) (*explore.Outcome, error) {
			rec := tr.newRecorder("explore/schedule", next.Add(1)-1)
			defer rec.finish()
			start := rec.spans[rec.top].start
			jrn := journal.New(seed, key)
			var sys *txn.System
			var err error
			rec.phase("setup", func() {
				sys, err = txn.NewSystem(txn.Config{
					CPUPerObj:       exploreCPU,
					CPUDiscipline:   disc,
					NewManager:      rec.wrapManager(newMgr),
					Journal:         jrn,
					Metrics:         rec.registry(),
					MetricsInterval: traceSampleEvery,
				})
				if err == nil {
					sys.K.SetChooser(ch)
					sys.Load(load)
				}
			})
			if err != nil {
				return nil, err
			}
			var sum struct{ processed, committed, restarts int }
			rec.phase("kernel-run", func() {
				s := sys.Run()
				sum.processed, sum.committed, sum.restarts = s.Processed, s.Committed, s.Restarts
			})
			hash := rec.journalStats(jrn)
			vs := rec.audit(jrn, audit.ForManager(sys.Mgr.Name()))
			rec.collect(1, sum.processed, sum.committed, sum.restarts)
			rec.stats.schedules = append(rec.stats.schedules, float64(tr.now()-start)/1e6)
			return &explore.Outcome{JournalHash: hash, Violations: vs}, nil
		},
	}, nil
}

// writeSpans writes the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		ID     int64  `json:"id"`
	}
	for _, s := range tr.spans {
		if err := enc.Encode(line{s.name, s.start, s.end, s.parent, s.id}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (tr *tracer) unitID() int64 {
	if tr == nil {
		return 0
	}
	return tr.unit
}

// openSeed opens the span of one explored workload seed and makes it
// the parent of the schedules explored under it.
func (tr *tracer) openSeed(seed int64) int32 {
	if tr == nil {
		return -1
	}
	i := tr.open("explore/seed", seed)
	tr.parent.Store(i)
	return i
}

func (tr *tracer) closeSeed(i int32) {
	if tr == nil {
		return
	}
	tr.close(i)
	tr.parent.Store(tr.spans[i].parent)
}
