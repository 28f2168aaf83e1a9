package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"heteromem/internal/arena"
	"heteromem/internal/config"
	"heteromem/internal/harness"
	"heteromem/internal/mem"
	"heteromem/internal/memsys"
	"heteromem/internal/obs"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
)

// hostProfEvery is the sampling period of the simulators' host profiler
// in traced passes: one memory-pipeline run in this many is timed stage
// by stage.
const hostProfEvery = 32

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one cell share its index within the pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cell   int    `json:"cell"` // -1 outside a cell
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Its methods are safe
// for concurrent use, and a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, cell, worker int) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Worker: worker, Start: int64(start),
	})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = int64(now)
	t.mu.Unlock()
}

// durations returns the durations in ns of the named spans.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ns())
		}
	}
	return out
}

// layerStat is one layer's line in layers.json.
type layerStat struct {
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
	Tail    tail    `json:"tail_us"`
}

// layers aggregates the spans by name. A span's self time is its
// duration less the part of it that its children cover; children of one
// parent may overlap (the workers of a pass), so their intervals are
// merged first.
func (t *tracer) layers() map[string]layerStat {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	out := map[string]layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Calls++
		st.TotalMS += s.ns() / 1e6
		st.SelfMS += (s.ns() - covered(children[s.ID])) / 1e6
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], s.ns()/1e3)
	}
	for name, d := range durs {
		st := out[name]
		st.P50US = median(sorted(d))
		st.Tail = tailOf(d)
		out[name] = st
	}
	return out
}

// covered is the length in ns of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curStart, curEnd int64
	for i, s := range spans {
		if i == 0 || s.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	return float64(total + curEnd - curStart)
}

// writeChrome writes the spans as Chrome trace events, one track per
// worker (0 is the probing and set-up goroutine).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: s.ns() / 1e3, PID: 1, TID: s.Worker,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "cell": s.Cell},
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// passData is what one traced pass measured besides its spans.
type passData struct {
	cells     []harness.Cell
	stats     rescache.Stats
	simulated []int        // indices of the cells a simulator ran
	counters  obs.Snapshot // registry counters summed over the simulated cells
}

// tracedPass drives one pass's cells through the layers' public calls,
// in the order harness.Executor.RunSystems makes them, with a span around
// every call: with a cache, a spec hash per system, a workload
// fingerprint per kernel and every cell's probe first; then the
// remaining cells on par workers, each keeping one simulator per system,
// built from the worker's arena on first use and Reset between cells.
// The simulators carry a metrics registry and a sampling host profiler.
func tracedPass(st *state, tr *tracer) (passData, error) {
	root := tr.begin("bench.pass", 0, -1, 0)
	defer tr.end(root)
	nsys := len(st.systems)
	n := st.cells()
	pd := passData{cells: make([]harness.Cell, n)}
	var store *rescache.Store
	var keys []rescache.Key
	var pending []int
	if st.def.cache == noCache {
		for idx := 0; idx < n; idx++ {
			pending = append(pending, idx)
		}
	} else {
		id := tr.begin("rescache.open", root, -1, 0)
		var err error
		store, err = rescache.Open(st.storeDir())
		tr.end(id)
		if err != nil {
			return pd, err
		}
		specs := make([]string, nsys)
		for si, sys := range st.systems {
			id := tr.begin("systems.hash", root, -1, 0)
			specs[si] = systems.Hash(sys)
			tr.end(id)
		}
		fps := make([]string, len(st.programs))
		for ki, p := range st.programs {
			id := tr.begin("harness.fingerprint", root, -1, 0)
			fps[ki] = harness.WorkloadFingerprint(p)
			tr.end(id)
		}
		keys = make([]rescache.Key, n)
		for ki, p := range st.programs {
			for si, sys := range st.systems {
				idx := ki*nsys + si
				keys[idx] = rescache.Key{Spec: specs[si], Kernel: p.Name, Workload: fps[ki]}
				id := tr.begin("rescache.get", root, idx, 0)
				res, ok := store.Get(keys[idx])
				tr.end(id)
				if !ok {
					pending = append(pending, idx)
					continue
				}
				res.System, res.Kernel = sys.Name, p.Name
				pd.cells[idx] = harness.Cell{System: sys.Name, Kernel: p.Name, Result: res}
			}
		}
	}
	pd.simulated = pending

	jobs := make(chan int, len(pending))
	for _, idx := range pending {
		jobs <- idx
	}
	close(jobs)
	workers := min(st.def.par, len(pending))
	errs := make([]error, workers)
	snaps := make([]obs.Snapshot, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = tracedWorker(st, tr, root, w+1, jobs, store, keys, pd.cells, &snaps[w])
		}(w)
	}
	wg.Wait()
	for w := range snaps {
		pd.counters.Merge(snaps[w])
		if errs[w] != nil {
			return pd, errs[w]
		}
	}
	pd.stats = store.Stats()
	return pd, store.Err()
}

// tracedWorker is one worker of a traced pass: it runs the cells it
// takes from jobs, writes them into cells and sums each cell's registry
// counters into agg. Like an executor worker, it builds its simulators
// from one arena of its own.
func tracedWorker(st *state, tr *tracer, root, worker int, jobs <-chan int, store *rescache.Store,
	keys []rescache.Key, cells []harness.Cell, agg *obs.Snapshot) error {
	reg := obs.NewRegistry()
	hp := obs.NewHostProf(hostProfEvery)
	ar := arena.New()
	sims := make([]*sim.Simulator, len(st.systems))
	for idx := range jobs {
		ki, si := idx/len(st.systems), idx%len(st.systems)
		p, sys := st.programs[ki], st.systems[si]
		cell := tr.begin("harness.cell", root, idx, worker)
		s := sims[si]
		if s == nil {
			id := tr.begin("sim.new", cell, idx, worker)
			var err error
			s, err = sim.NewWithOptions(sys, sim.Options{Metrics: reg, HostProf: hp, Arena: ar})
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", p.Name, sys.Name, err)
			}
			sims[si] = s
		} else {
			id := tr.begin("sim.reset", cell, idx, worker)
			s.Reset()
			tr.end(id)
		}
		// The registry is shared by the worker's simulators; clear what a
		// previous cell left so the snapshot covers this cell alone.
		reg.Reset()
		id := tr.begin("sim.run", cell, idx, worker)
		res, err := s.Run(p)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", p.Name, sys.Name, err)
		}
		agg.Merge(reg.Snapshot())
		if store != nil {
			id := tr.begin("rescache.put", cell, idx, worker)
			err := store.Put(keys[idx], res)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		cells[idx] = harness.Cell{System: sys.Name, Kernel: p.Name, Result: res}
		tr.end(cell)
	}
	return nil
}

// observed is what the pass through an observed executor measured.
type observed struct {
	pd        passData
	wall      float64   // ns
	queueWait []float64 // ms, simulated cells
	busy      float64   // ns of simulated cells
	cached    float64   // ns probing the cells served from the cache
	workers   int
}

// observedPass runs one pass through harness.Executor with an Observer
// writing its ledger to memory, and reads queue wait and per-cell wall
// time back from the ledger's cell records.
func observedPass(st *state) (observed, error) {
	var buf bytes.Buffer
	ledger := obs.NewLedger(&buf)
	e := harness.Executor{Par: st.def.par, Obs: &harness.Observer{Name: st.def.name, Ledger: ledger}}
	if st.def.cache != noCache {
		store, err := rescache.Open(st.storeDir())
		if err != nil {
			return observed{}, err
		}
		e.Cache = store
	}
	start := time.Now()
	cells, err := e.RunSystems(st.systems, st.kernels)
	o := observed{wall: float64(time.Since(start))}
	if err != nil {
		return o, err
	}
	if err := ledger.Close(); err != nil {
		return o, err
	}
	o.pd = passData{cells: cells, stats: e.Cache.Stats()}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec harness.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return o, fmt.Errorf("ledger: %w", err)
		}
		switch {
		case rec.T != "cell":
		case rec.Cached:
			// A cached cell's wall time runs until the observer records
			// it, after every probe; its own cost is the probe.
			o.cached += float64(rec.ProbeNS)
		default:
			o.busy += float64(rec.WallNS)
			o.queueWait = append(o.queueWait, float64(rec.QueueWaitNS)/1e6)
		}
	}
	o.workers = min(st.def.par, len(o.queueWait))
	return o, sc.Err()
}

// perLayer names every per-layer metric with its unit, in report order.
// BENCHMARK.json lists the same names and units.
var perLayer = []metricDef{
	{"workload.open_us", "us"},
	{"systems.enumerate_ms", "ms"},
	{"systems.hash_us", "us"},
	{"harness.pointkey_us", "us"},
	{"harness.queue_wait_ms.p50", "ms"},
	{"harness.queue_wait_ms.tail", "ms"},
	{"harness.worker_util", "ratio"},
	{"harness.residual_frac", "ratio"},
	{"rescache.open_ms", "ms"},
	{"rescache.get_us.p50", "us"},
	{"rescache.get_us.tail", "us"},
	{"rescache.bytes_read_per_hit", "B"},
	{"rescache.put_us.p50", "us"},
	{"rescache.put_us.tail", "us"},
	{"rescache.bytes_written_per_put", "B"},
	{"rescache.hit_rate", "ratio"},
	{"rescache.corrupt", "count"},
	{"sim.new_ms.p50", "ms"},
	{"sim.reset_us.p50", "us"},
	{"sim.run_ms.p50", "ms"},
	{"sim.run_ms.tail", "ms"},
	{"sim.ns_per_inst", "ns"},
	{"sim.phase.sequential.share", "ratio"},
	{"sim.phase.parallel.share", "ratio"},
	{"sim.phase.transfer.share", "ratio"},
	{"memsys.xlat.ns_per_sample", "ns"},
	{"memsys.private.ns_per_sample", "ns"},
	{"memsys.mshr.ns_per_sample", "ns"},
	{"memsys.ring_req.ns_per_sample", "ns"},
	{"memsys.l3.ns_per_sample", "ns"},
	{"memsys.dram.ns_per_sample", "ns"},
	{"memsys.ring_resp.ns_per_sample", "ns"},
	{"memsys.commit.ns_per_sample", "ns"},
	{"memsys.chain_share", "ratio"},
	{"sim.core_loop_share", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"cpu.instructions", "count"},
	{"gpu.instructions", "count"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.mispredict_rate", "ratio"},
	{"gpu.line_requests_per_memop", "ratio"},
	{"mem.accesses", "count"},
	{"mem.l1_hit_rate.cpu", "ratio"},
	{"mem.l1_hit_rate.gpu", "ratio"},
	{"mem.l2_hit_rate", "ratio"},
	{"mem.l3_hit_rate", "ratio"},
	{"mem.dram_fills", "count"},
	{"mem.coherence_ops", "count"},
	{"dram.requests", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"noc.messages", "count"},
	{"noc.hops_per_message", "ratio"},
	{"xlat.lookups", "count"},
	{"xlat.miss_rate", "ratio"},
	{"xlat.walk_us", "us"},
	{"memtech.hbm.accesses", "count"},
	{"memtech.nvm.reads", "count"},
	{"memtech.dram_cache.misses", "count"},
	{"comm.transfers", "count"},
	{"comm.bytes", "B"},
	{"addrspace.first_touch_faults", "count"},
	{"addrspace.ownership_changes", "count"},
}

// simCounts are the simulated statistics of a pass's simulated cells:
// exact, so identical on every pass and on any commit that leaves the
// simulator's behaviour alone.
func simCounts(pd passData) map[string]float64 {
	var (
		cpuInst, cpuCycles, branches, mispredicts uint64
		gpuInst, gpuMemOps, gpuLines              uint64
		acc, l1, dramFills                        [mem.NumPUs]uint64
		l2, l3, cpuL3, coherence                  uint64
		xLookups, xMisses, xWalkPS                uint64
		dramReq, rowHits, msgs, hops              uint64
		transfers, bytes, faults, owners          uint64
	)
	cycle := uint64(config.BaselineCPU().Domain().PeriodPS())
	for _, idx := range pd.simulated {
		r := pd.cells[idx].Result
		cpuInst += r.CPU.Instructions
		cpuCycles += uint64(r.CPU.Duration) / cycle
		branches += r.CPU.Branches
		mispredicts += r.CPU.Mispredicts
		gpuInst += r.GPU.Instructions
		gpuMemOps += r.GPU.MemOps
		gpuLines += r.GPU.LineRequests
		for p := mem.PU(0); p < mem.NumPUs; p++ {
			acc[p] += r.Mem.Accesses[p]
			l1[p] += r.Mem.L1Hits[p]
			dramFills[p] += r.Mem.DRAMFills[p]
			l3 += r.Mem.L3Hits[p]
			xLookups += r.Mem.XlatLookups[p]
			xMisses += r.Mem.XlatMisses[p]
			xWalkPS += r.Mem.XlatWalkPS[p]
		}
		cpuL3 += r.Mem.L3Hits[mem.CPU]
		l2 += r.Mem.L2Hits
		coherence += r.Mem.CoherenceOps
		dramReq += r.DRAM.Requests
		rowHits += r.DRAM.RowHits
		msgs += r.Ring.Messages
		hops += r.Ring.TotalHops
		transfers += r.Fabric.Transfers
		bytes += r.Fabric.Bytes
		faults += r.Space.FirstTouchFaults
		owners += r.Space.OwnershipChanges
	}
	c := pd.counters.Counters
	return map[string]float64{
		"cpu.instructions":             float64(cpuInst),
		"gpu.instructions":             float64(gpuInst),
		"cpu.ipc":                      ratio(cpuInst, cpuCycles),
		"cpu.mispredict_rate":          ratio(mispredicts, branches),
		"gpu.line_requests_per_memop":  ratio(gpuLines, gpuMemOps),
		"mem.accesses":                 float64(acc[mem.CPU] + acc[mem.GPU]),
		"mem.l1_hit_rate.cpu":          ratio(l1[mem.CPU], acc[mem.CPU]),
		"mem.l1_hit_rate.gpu":          ratio(l1[mem.GPU], acc[mem.GPU]),
		"mem.l2_hit_rate":              ratio(l2, l2+cpuL3+dramFills[mem.CPU]),
		"mem.l3_hit_rate":              ratio(l3, l3+dramFills[mem.CPU]+dramFills[mem.GPU]),
		"mem.dram_fills":               float64(dramFills[mem.CPU] + dramFills[mem.GPU]),
		"mem.coherence_ops":            float64(coherence),
		"dram.requests":                float64(dramReq),
		"dram.row_hit_rate":            ratio(rowHits, dramReq),
		"noc.messages":                 float64(msgs),
		"noc.hops_per_message":         ratio(hops, msgs),
		"xlat.lookups":                 float64(xLookups),
		"xlat.miss_rate":               ratio(xMisses, xLookups),
		"xlat.walk_us":                 float64(xWalkPS) / 1e6,
		"memtech.hbm.accesses":         float64(c["memtech.hbm.accesses"]),
		"memtech.nvm.reads":            float64(c["memtech.nvm.reads"]),
		"memtech.dram_cache.misses":    float64(c["memtech.dram_cache.misses"]),
		"comm.transfers":               float64(transfers),
		"comm.bytes":                   float64(bytes),
		"addrspace.first_touch_faults": float64(faults),
		"addrspace.ownership_changes":  float64(owners),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio[T uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerValues computes every per-layer metric from the spans, the traced
// passes, the observed pass and the untraced and traced pass times,
// scaled to the reference host speed.
// Tails also come back with their percentile and sample count.
func layerValues(tr *tracer, passes []passData, o observed, untraced, traced []float64) (map[string]float64, map[string]tail) {
	v := map[string]float64{}
	tails := map[string]tail{}
	p50 := func(name string, scale float64) float64 { return median(sorted(tr.durations(name))) / scale }
	withTail := func(metric, span string, scale float64) {
		d := tr.durations(span)
		for i := range d {
			d[i] /= scale
		}
		v[metric+".p50"] = median(sorted(d))
		tails[metric+".tail"] = tailOf(d)
		v[metric+".tail"] = tails[metric+".tail"].Value
	}
	v["workload.open_us"] = p50("workload.open", 1e3)
	v["systems.enumerate_ms"] = p50("systems.enumerate", 1e6)
	v["systems.hash_us"] = p50("systems.hash", 1e3)
	// The executor hashes each system and fingerprints each kernel once;
	// a point key costs its cell a share of both.
	if probes := len(tr.durations("rescache.get")); probes > 0 {
		v["harness.pointkey_us"] = (sum(tr.durations("systems.hash")) + sum(tr.durations("harness.fingerprint"))) / float64(probes) / 1e3
	}
	v["rescache.open_ms"] = p50("rescache.open", 1e6)
	withTail("rescache.get_us", "rescache.get", 1e3)
	withTail("rescache.put_us", "rescache.put", 1e3)
	v["sim.new_ms.p50"] = p50("sim.new", 1e6)
	v["sim.reset_us.p50"] = p50("sim.reset", 1e3)
	withTail("sim.run_ms", "sim.run", 1e6)

	v["harness.queue_wait_ms.p50"] = median(sorted(o.queueWait))
	tails["harness.queue_wait_ms.tail"] = tailOf(o.queueWait)
	v["harness.queue_wait_ms.tail"] = tails["harness.queue_wait_ms.tail"].Value
	v["harness.worker_util"] = ratio(o.busy, float64(o.workers)*o.wall)
	v["harness.residual_frac"] = 1 - ratio(o.busy+o.cached, float64(max(o.workers, 1))*o.wall)

	var st rescache.Stats
	var host obs.Snapshot
	var inst float64
	for _, pd := range passes {
		st.Hits += pd.stats.Hits
		st.Misses += pd.stats.Misses
		st.DiskHits += pd.stats.DiskHits
		st.Puts += pd.stats.Puts
		st.Corrupt += pd.stats.Corrupt
		st.BytesRead += pd.stats.BytesRead
		st.BytesWritten += pd.stats.BytesWritten
		host.Merge(pd.counters)
		c := simCounts(pd)
		inst += c["cpu.instructions"] + c["gpu.instructions"]
	}
	v["rescache.hit_rate"] = st.HitRate()
	v["rescache.corrupt"] = float64(st.Corrupt)
	v["rescache.bytes_read_per_hit"] = ratio(st.BytesRead, st.DiskHits)
	v["rescache.bytes_written_per_put"] = ratio(st.BytesWritten, st.Puts)

	var runNS float64
	for _, d := range tr.durations("sim.run") {
		runNS += d
	}
	v["sim.ns_per_inst"] = ratio(runNS, inst)
	hc := host.Counters
	phases := []string{"sequential", "parallel", "transfer"}
	var phaseNS uint64
	for _, ph := range phases {
		phaseNS += hc["host.sim.phase."+ph+".ns"]
	}
	for _, ph := range phases {
		v["sim.phase."+ph+".share"] = ratio(hc["host.sim.phase."+ph+".ns"], phaseNS)
	}
	var chainNS uint64
	for _, sec := range memsys.ProfSections() {
		v[sec+".ns_per_sample"] = ratio(hc["host."+sec+".ns"], hc["host."+sec+".samples"])
		chainNS += hc["host."+sec+".ns"]
	}
	if runNS > 0 {
		v["memsys.chain_share"] = float64(chainNS*hostProfEvery) / runNS
		v["sim.core_loop_share"] = 1 - v["memsys.chain_share"]
	}
	if len(passes) > 0 {
		for name, c := range simCounts(passes[0]) {
			v[name] = c
		}
	}
	v["bench.trace_overhead_frac"] = ratio(median(sorted(traced))-median(sorted(untraced)), median(sorted(untraced)))
	// A layer the workload never calls reads 0.
	for _, m := range perLayer {
		v[m.name] += 0
	}
	return v, tails
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
