package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"heteromem/internal/config"
	"heteromem/internal/obs"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
)

// CheckFlags validates the observability and verification values hetsim
// and hetsweep read from the command line, so that none silently wraps
// or disables itself. It returns the interval epoch of intervalCycles
// CPU cycles in picoseconds (0 stays 0), rejecting one that overflows;
// hostprofEvery must be in [0, 2^32), the range obs.NewHostProf holds;
// cacheVerify must be a fraction in [0, 1], NaN rejected.
func CheckFlags(intervalCycles uint64, hostprofEvery int, cacheVerify float64) (intervalPS uint64, err error) {
	cyclePS := uint64(config.BaselineCPU().Domain().PeriodPS())
	if intervalCycles > math.MaxUint64/cyclePS {
		return 0, fmt.Errorf("-interval-cycles %d: the epoch overflows at %d ps per cycle", intervalCycles, cyclePS)
	}
	if hostprofEvery < 0 || uint64(hostprofEvery) > math.MaxUint32 {
		return 0, fmt.Errorf("-hostprof %d: must be in [0, %d]", hostprofEvery, uint64(math.MaxUint32))
	}
	if !(cacheVerify >= 0 && cacheVerify <= 1) {
		return 0, fmt.Errorf("-cache-verify %v: fraction must be in [0, 1]", cacheVerify)
	}
	return intervalCycles * cyclePS, nil
}

// Observer wires a sweep into the observability layer: every cell the
// Executor runs appends a structured record to the run ledger, opens a
// hierarchical span (sweep → design point → kernel; the simulator hangs
// its phase spans underneath), counts toward the sweep.cells.* counters,
// and merges the per-worker metric registries into one sweep-wide
// snapshot (Metrics). One Observer may watch several RunSystems calls:
// each call is a sweep span of its own in the ledger, while the counts,
// the metric aggregate and the trace's time axis run over all of them.
//
// The Observer itself is nil-safe from the Executor's side — a nil
// *Observer disables all of it — and internally synchronised, so any
// number of workers report cells concurrently.
type Observer struct {
	// Name labels the sweep's root span (defaults to "sweep").
	Name string
	// Ledger, when non-nil, receives one span line per sweep/point/kernel
	// scope and one "cell" record per (system, kernel) measurement.
	Ledger *obs.Ledger
	// Trace, when non-nil, collects a host-time Perfetto trace with one
	// track per worker and one slice per cell. Host nanoseconds are
	// recorded at nanosecond precision (ns×1000 in the tracer's
	// picosecond field), so a displayed microsecond is a real
	// microsecond of wall time.
	Trace *obs.Tracer
	// HostProfEvery, when positive, attaches sampled host wall-clock
	// self-profiling to every worker (1 = every pipeline run).
	HostProfEvery int
	// IntervalPS, when positive, samples each cell's registry at this
	// simulated-time interval and writes one CSV per cell to IntervalDir.
	IntervalPS  uint64
	IntervalDir string

	mu     sync.Mutex
	sweep  *obs.Span // the current call's root span
	points map[string]*obs.Span
	agg    obs.Snapshot
	total  int
	cells  cellCounts
	// atBegin is cells when the current call began; the call's sweep
	// span reports the difference.
	atBegin cellCounts
	built   int
	workers int
	start   time.Time // the first call's start: the trace's zero
	err     error
	// cache is the sweep's result cache, when one is attached; Metrics
	// reads its counters.
	cache *rescache.Store
}

// cellCounts are the cell counts behind the sweep.cells.* counters.
type cellCounts struct{ done, failed, cached, verified int }

// CellRecord is the ledger line appended for every completed sweep cell.
// Host times are wall-clock nanoseconds; simulated durations are
// picoseconds, the simulator's native unit.
type CellRecord struct {
	T      string `json:"t"`
	Span   uint64 `json:"span,omitempty"`
	System string `json:"system"`
	Spec   string `json:"spec,omitempty"`
	Kernel string `json:"kernel"`
	Worker int    `json:"worker"`

	// QueueWaitNS and WallNS are integer nanoseconds, never a coarser
	// unit: a cached cell resolves in sub-microsecond host time and must
	// remain distinguishable from a fast miss, which millisecond (or
	// float-second) rounding would collapse to 0.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	WallNS      int64 `json:"wall_ns"`
	// Cached marks a cell served from the result cache without running a
	// simulator; ProbeNS is the cache-probe time for that cell. Verify
	// marks a re-simulation of a cached cell by the -cache-verify
	// determinism tripwire (not counted toward sweep progress).
	Cached  bool   `json:"cached,omitempty"`
	ProbeNS int64  `json:"probe_ns,omitempty"`
	Verify  bool   `json:"verify,omitempty"`
	Err     string `json:"err,omitempty"`

	SequentialPS    uint64  `json:"sequential_ps"`
	ParallelPS      uint64  `json:"parallel_ps"`
	CommunicationPS uint64  `json:"communication_ps"`
	TotalPS         uint64  `json:"total_ps"`
	CommShare       float64 `json:"comm_share"`
	PageFaults      int     `json:"page_faults,omitempty"`
	OwnershipOps    int     `json:"ownership_ops,omitempty"`
}

// begin opens one RunSystems call's sweep: the first call records the
// start instant; every call adds its cells to the total, raises the
// worker count to its pool if larger, attaches its result cache (if
// any), and writes its root span.
func (o *Observer) begin(totalCells, workers int, cache *rescache.Store) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.start.IsZero() {
		o.start = time.Now()
	}
	o.total += totalCells
	o.atBegin = o.cells
	if cache != nil {
		o.cache = cache
	}
	o.workers = max(o.workers, workers)
	o.points = make(map[string]*obs.Span)
	name := o.Name
	if name == "" {
		name = "sweep"
	}
	o.sweep = o.Ledger.Root("sweep", name)
	if cache != nil {
		o.Trace.SetTrack(0, "cache")
	}
	for w := 0; w < workers; w++ {
		o.Trace.SetTrack(w+1, fmt.Sprintf("worker %d", w))
	}
}

// pointLocked returns (lazily creating) the design point's span.
// Callers hold o.mu.
func (o *Observer) pointLocked(system string) *obs.Span {
	point := o.points[system]
	if point == nil {
		point = o.sweep.Child("point", system)
		o.points[system] = point
	}
	return point
}

// beginCell opens the cell's span (kind "kernel" for a simulation,
// "verify" for a cache-verify re-simulation) beneath the system's lazily
// created point span. The returned span parents the simulator's phase
// spans via SetRunSpan.
func (o *Observer) beginCell(system, kernel, kind string) *obs.Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pointLocked(system).Child(kind, kernel)
}

// cachedCell records a cell served from the result cache: one ledger
// record with cached:true, a closed kernel span, a slice on the cache
// trace track, and a sweep.cells.{done,cached} bump. No worker ran it,
// so the metric aggregate is untouched.
func (o *Observer) cachedCell(system, spec, kernel string, res sim.Result, probeNS int64, started time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	span := o.pointLocked(system).Child("kernel", kernel)
	rec := newCellRecord(system, spec, kernel, res, nil)
	rec.T = "cell"
	rec.Span = span.ID()
	rec.Worker = -1
	rec.Cached = true
	rec.ProbeNS = probeNS
	rec.WallNS = end.Sub(started).Nanoseconds()
	o.cells.done++
	o.cells.cached++
	if err := o.Ledger.Append(rec); err != nil && o.err == nil {
		o.err = err
	}
	span.End(map[string]any{"cached": true, "total_ps": rec.TotalPS})
	o.Trace.Span(0, system+"/"+kernel, "cached",
		hostPS(o.start, started), hostPS(o.start, end),
		map[string]any{"probe_ns": probeNS})
}

// simBuilt counts one simulator constructed by a worker.
func (o *Observer) simBuilt() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.built++
	o.mu.Unlock()
}

// endCell completes a cell: merges the worker registry's snapshot into
// the sweep aggregate, appends the ledger record, closes the cell span,
// emits the worker-track trace slice, and updates the cell counters.
func (o *Observer) endCell(w int, span *obs.Span, rec CellRecord, snap obs.Snapshot, queued, started time.Time) {
	if o == nil {
		return
	}
	end := time.Now()
	rec.T = "cell"
	rec.Span = span.ID()
	rec.Worker = w
	rec.QueueWaitNS = started.Sub(queued).Nanoseconds()
	rec.WallNS = end.Sub(started).Nanoseconds()

	o.mu.Lock()
	defer o.mu.Unlock()
	o.agg.Merge(snap)
	if rec.Verify {
		// A verify re-run duplicates a cell already counted as cached,
		// so it does not count toward sweep.cells.done.
		o.cells.verified++
	} else {
		o.cells.done++
	}
	if rec.Err != "" {
		o.cells.failed++
	}
	if err := o.Ledger.Append(rec); err != nil && o.err == nil {
		o.err = err
	}
	attrs := map[string]any{"worker": w, "total_ps": rec.TotalPS}
	if rec.Verify {
		attrs["verify"] = true
	}
	if rec.Err != "" {
		attrs["err"] = rec.Err
	}
	span.End(attrs)
	o.Trace.Span(w+1, rec.System+"/"+rec.Kernel, "cell",
		hostPS(o.start, started), hostPS(o.start, end),
		map[string]any{"queue_wait_ns": rec.QueueWaitNS})
}

// finish closes the call's point and sweep spans. Called once per
// RunSystems call, after the worker pool drains.
func (o *Observer) finish() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.points {
		p.End(nil)
	}
	now, at := o.cells, o.atBegin
	attrs := map[string]any{"cells": now.done - at.done, "failed": now.failed - at.failed}
	if o.cache != nil {
		attrs["cached"] = now.cached - at.cached
		attrs["verified"] = now.verified - at.verified
	}
	o.sweep.End(attrs)
	if err := o.Ledger.Err(); err != nil && o.err == nil {
		o.err = err
	}
}

// hostPS maps a host instant onto the tracer's picosecond axis at
// nanosecond precision, relative to the sweep start: ns since start
// × 1000, so one displayed microsecond is one real microsecond.
func hostPS(start, t time.Time) uint64 {
	d := t.Sub(start)
	if d < 0 {
		return 0
	}
	return uint64(d.Nanoseconds()) * 1000
}

// Err reports the first ledger or interval-CSV write error the sweep
// encountered. Observability failures never fail the sweep itself.
func (o *Observer) Err() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// Workers returns the largest worker pool of the Observer's sweeps (the
// Executor's Par after clamping); 0 before any sweep has begun.
func (o *Observer) Workers() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.workers
}

// Metrics returns the aggregate metric snapshot of every sweep the
// Observer watched: the merge of every completed cell's registry, plus
// sweep.* bookkeeping counters; sweep.sims_built counts the simulators
// the workers constructed.
// The returned snapshot is a private copy, safe to serialise while
// workers keep merging.
func (o *Observer) Metrics() obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]uint64{}}
	if o == nil {
		return out
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out.Merge(o.agg)
	out.Counters["sweep.cells.total"] = uint64(o.total)
	out.Counters["sweep.cells.done"] = uint64(o.cells.done)
	out.Counters["sweep.cells.failed"] = uint64(o.cells.failed)
	out.Counters["sweep.sims_built"] = uint64(o.built)
	if o.cache != nil {
		out.Counters["sweep.cells.cached"] = uint64(o.cells.cached)
		out.Counters["sweep.cells.verified"] = uint64(o.cells.verified)
		for name, v := range o.cache.Stats().Counters() {
			out.Counters[name] = v
		}
	}
	return out
}

// writeIntervalCSV persists one cell's interval time series under
// IntervalDir as <kernel>__<system>.csv. Errors are recorded on the
// Observer, not returned to the worker.
func (o *Observer) writeIntervalCSV(system, kernel string, s *obs.Sampler) {
	if o == nil || o.IntervalDir == "" || s == nil || len(s.Samples()) == 0 {
		return
	}
	record := func(err error) {
		o.mu.Lock()
		if o.err == nil {
			o.err = err
		}
		o.mu.Unlock()
	}
	if err := os.MkdirAll(o.IntervalDir, 0o755); err != nil {
		record(err)
		return
	}
	path := filepath.Join(o.IntervalDir, artifactName(kernel)+"__"+artifactName(system)+".csv")
	f, err := os.Create(path)
	if err != nil {
		record(err)
		return
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		record(err)
		return
	}
	if err := f.Close(); err != nil {
		record(err)
	}
}

// artifactName maps a free-form system or kernel name onto a portable
// file-name fragment.
func artifactName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		ok := r == '.' || r == '_' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "unnamed"
	}
	return b.String()
}

// newCellRecord fills the simulation-result half of a cell record.
func newCellRecord(system, spec, kernel string, res sim.Result, runErr error) CellRecord {
	rec := CellRecord{
		System: system, Spec: spec, Kernel: kernel,
	}
	if runErr != nil {
		rec.Err = runErr.Error()
		return rec
	}
	rec.SequentialPS = uint64(res.Sequential)
	rec.ParallelPS = uint64(res.Parallel)
	rec.CommunicationPS = uint64(res.Communication)
	rec.TotalPS = uint64(res.Total())
	rec.CommShare = res.CommFraction()
	rec.PageFaults = res.PageFaults
	rec.OwnershipOps = res.OwnershipOps
	return rec
}
