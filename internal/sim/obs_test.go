package sim

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/mem"
	"heteromem/internal/memsys"
	"heteromem/internal/memtech"
	"heteromem/internal/obs"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
)

// runInstrumented runs kernel on sys with the full observability stack
// attached and returns the result plus the sinks.
func runInstrumented(t *testing.T, sys systems.System, kernel string, intervalPS uint64) (Result, *obs.Registry, *obs.Sampler, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	sp := obs.NewSampler(reg, intervalPS)
	tr := obs.NewTracer()
	s, err := NewWithOptions(sys, Options{Metrics: reg, Sampler: sp, Tracer: tr})
	if err != nil {
		t.Fatalf("NewWithOptions: %v", err)
	}
	res, err := s.Run(workload.MustGenerate(kernel))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, reg, sp, tr
}

// TestIntervalDeltasSumToResult is the acceptance check: summing the
// per-epoch deltas over the whole time series must reproduce the final
// counts exactly — the Finish tail epoch guarantees no activity is lost,
// and a component the simulator's flush never reaches would leave its
// counts out of the epochs.
func TestIntervalDeltasSumToResult(t *testing.T) {
	for _, sys := range []systems.System{systems.LRB(), systems.CPUGPU(), systems.GMAC()} {
		t.Run(sys.Name, func(t *testing.T) {
			res, reg, sp, _ := runInstrumented(t, sys, "reduction", 30_000_000) // 30 us epochs
			sums := map[string]uint64{}
			for _, sm := range sp.Samples() {
				for _, c := range reg.Counters() {
					sums[c.Name()] += sm.Delta(c.Name())
				}
			}
			for _, c := range reg.Counters() {
				if sums[c.Name()] != c.Value() {
					t.Errorf("%s deltas sum to %d, registry has %d", c.Name(), sums[c.Name()], c.Value())
				}
			}
			for name, want := range map[string]uint64{
				"cpu.instructions":          res.CPU.Instructions,
				"gpu.instructions":          res.GPU.Instructions,
				"noc.messages":              res.Ring.Messages,
				"dram.requests":             res.DRAM.Requests,
				"comm.bytes":                res.Fabric.Bytes,
				"addrspace.map_updates.cpu": res.Space.MapUpdates[mem.CPU],
				"addrspace.map_updates.gpu": res.Space.MapUpdates[mem.GPU],
			} {
				if sums[name] != want || want == 0 {
					t.Errorf("%s deltas sum to %d, Result has %d (want equal and nonzero)", name, sums[name], want)
				}
			}
			if len(sp.Samples()) < 2 {
				t.Errorf("expected multiple epochs, got %d", len(sp.Samples()))
			}
		})
	}
}

// TestMetricsMatchResultStats cross-checks every counter the run
// registers, except the host profiler's, against the statistics the
// components keep independently of the registry: the Result, the caches'
// and the translation stage's own, and the memory technology's device
// counts. It runs every memory technology with translation off and with
// 4 KB pages, so each batched namespace (cpu, gpu, mem, noc, dram, comm,
// addrspace, memtech, xlat) is covered.
func TestMetricsMatchResultStats(t *testing.T) {
	for _, tech := range memtech.AllKinds() {
		for _, preset := range []string{"off", "4k"} {
			sys := systems.LRB()
			sys.MemTech = memtech.Spec{Kind: tech}
			if preset != "off" {
				sys.Translation = xlat.MustParsePreset(preset)
			}
			t.Run(tech.String()+"/"+preset, func(t *testing.T) {
				reg := obs.NewRegistry()
				s, err := NewWithOptions(sys, Options{Metrics: reg})
				if err != nil {
					t.Fatalf("NewWithOptions: %v", err)
				}
				res, err := s.Run(workload.MustGenerate("reduction"))
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				want, unchecked := expectedCounters(s, res)
				for _, c := range reg.Counters() {
					name := c.Name()
					if strings.HasPrefix(name, "host.") || unchecked[name] {
						continue
					}
					w, ok := want[name]
					if !ok {
						t.Errorf("counter %s has no independent count to check against", name)
						continue
					}
					if c.Value() != w {
						t.Errorf("%s = %d, component statistics have %d", name, c.Value(), w)
					}
					delete(want, name)
				}
				for name := range want {
					t.Errorf("counter %s was never registered", name)
				}
				for name := range unchecked {
					if _, ok := reg.LookupCounter(name); !ok {
						t.Errorf("counter %s was never registered", name)
					}
				}
			})
		}
	}
}

// expectedCounters returns, for every counter a run of s registers, the
// value its components' own statistics imply, plus the counters that have
// no independent count.
func expectedCounters(s *Simulator, res Result) (want map[string]uint64, unchecked map[string]bool) {
	h := s.Hierarchy()
	want = map[string]uint64{
		"cpu.instructions": res.CPU.Instructions,
		"cpu.branches":     res.CPU.Branches,
		"cpu.mispredicts":  res.CPU.Mispredicts,
		"cpu.memops":       res.CPU.MemOps,
		"cpu.commops":      res.CPU.CommOps,
		"cpu.pushops":      res.CPU.PushOps,
		"cpu.commtime_ps":  uint64(res.CPU.CommTime),

		"gpu.instructions":  res.GPU.Instructions,
		"gpu.branches":      res.GPU.Branches,
		"gpu.memops":        res.GPU.MemOps,
		"gpu.line_requests": res.GPU.LineRequests,
		"gpu.sw.hits":       res.GPU.SWHits,
		"gpu.sw.misses":     res.GPU.SWMisses,
		"gpu.commops":       res.GPU.CommOps,
		"gpu.pushops":       res.GPU.PushOps,
		"gpu.commtime_ps":   uint64(res.GPU.CommTime),

		"mem.l2.hits":           res.Mem.L2Hits,
		"mem.writebacks":        res.Mem.Writebacks,
		"mem.coherence.ops":     res.Mem.CoherenceOps,
		"mem.pushes":            res.Mem.Pushes,
		"mem.push_bytes":        res.Mem.PushBytes,
		"mem.scratch_overflows": res.Mem.ScratchOverflows,

		"noc.messages": res.Ring.Messages,
		"noc.hops":     res.Ring.TotalHops,
		"noc.bytes":    res.Ring.Bytes,

		"dram.requests":   res.DRAM.Requests,
		"dram.row_hits":   res.DRAM.RowHits,
		"dram.row_misses": res.DRAM.RowMisses,
		"dram.bytes":      res.DRAM.Requests * uint64(h.DRAM().Config().LineBytes),

		"comm.transfers": res.Fabric.Transfers,
		"comm.bytes":     res.Fabric.Bytes,
		"comm.busy_ps":   uint64(res.Fabric.Busy),

		"addrspace.allocs":             res.Space.Allocs,
		"addrspace.frees":              res.Space.Frees,
		"addrspace.ownership_changes":  res.Space.OwnershipChanges,
		"addrspace.first_touch_faults": res.Space.FirstTouchFaults,
	}
	// noc.link_busy_ps and the NVM's write stalls are counted nowhere
	// else; the interval test checks they reach the registry.
	unchecked = map[string]bool{"noc.link_busy_ps": true}

	var fills, l3Writebacks uint64
	for p := mem.PU(0); p < mem.NumPUs; p++ {
		pu := p.String()
		want["mem.accesses."+pu] = res.Mem.Accesses[p]
		want["mem.l1.hits."+pu] = res.Mem.L1Hits[p]
		want["mem.l3.hits."+pu] = res.Mem.L3Hits[p]
		want["mem.dram_fills."+pu] = res.Mem.DRAMFills[p]
		want["addrspace.map_updates."+pu] = res.Space.MapUpdates[p]
		fills += res.Mem.DRAMFills[p]
	}
	addCache := func(prefix string, st cache.Stats) {
		want[prefix+".hits"] = st.Hits
		want[prefix+".misses"] = st.Misses
		want[prefix+".evictions"] = st.Evictions
	}
	for name, st := range h.CacheStats() {
		addCache("mem."+name, st)
		if strings.HasPrefix(name, "l3.") {
			l3Writebacks += st.Writebacks
		}
	}
	if x := h.Translation(); x != nil {
		st := x.Stats()
		for p := memsys.PU(0); p < memsys.NumPUs; p++ {
			pu := p.String()
			want["xlat.lookups."+pu] = res.Mem.XlatLookups[p]
			want["xlat.misses."+pu] = res.Mem.XlatMisses[p]
			want["xlat.walk_ps."+pu] = res.Mem.XlatWalkPS[p]
			want["xlat.shootdowns."+pu] = res.Mem.XlatShootdowns[p]
			want["xlat.walk_cache_hits."+pu] = st.WalkCacheHits[p]
		}
	}
	// Every L3 miss reads the memory technology once, and every dirty L3
	// victim is written back to it.
	switch b := h.Backend().(type) {
	case *memsys.DRAMStage:
		want["memtech.dram.accesses"] = fills
	case *memsys.HBMStage:
		st := b.Ctrl.Stats()
		want["memtech.hbm.accesses"] = fills
		want["memtech.hbm.requests"] = st.Requests
		want["memtech.hbm.row_hits"] = st.RowHits
		want["memtech.hbm.row_misses"] = st.RowMisses
		want["memtech.hbm.bytes"] = st.Requests * uint64(b.Ctrl.Config().LineBytes)
	case *memsys.NVMStage:
		want["memtech.nvm.reads"] = fills
		want["memtech.nvm.writes"] = l3Writebacks
		unchecked["memtech.nvm.write_stalls"] = true
	case *memsys.DRAMCacheStage:
		st := b.Dir.Stats()
		want["memtech.dram_cache.hits"] = st.Hits
		want["memtech.dram_cache.misses"] = st.Misses
		want["memtech.dram_cache.fills"] = st.Fills
		want["memtech.dram_cache.writebacks"] = st.Writebacks
		addCache("memtech.dram_cache.cache", st)
	}
	return want, unchecked
}

// TestTraceContents runs reduction on LRB and checks the trace holds the
// acceptance-criteria events: phase spans plus fault and ownership
// instants, and that it serialises to valid Chrome trace-event JSON.
func TestTraceContents(t *testing.T) {
	_, _, _, tr := runInstrumented(t, systems.LRB(), "reduction", 1_000_000_000)
	byName := map[string]int{}
	byPh := map[string]int{}
	for _, e := range tr.Summaries() {
		byName[e.Name]++
		byPh[e.Ph]++
	}
	for _, want := range []string{
		"phase0.transfer", "phase1.parallel",
		"lib-pf", "acquire-ownership", "release-ownership", "cache-flush",
		"transfer.h2d",
	} {
		if byName[want] == 0 {
			t.Errorf("trace missing event %q (have %v)", want, byName)
		}
	}
	if byPh["X"] == 0 || byPh["i"] == 0 {
		t.Errorf("trace needs spans and instants, got phases %v", byPh)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Errorf("trace JSON missing traceEvents array")
	}
}

// TestIntervalCSV checks the CSV export parses, carries the derived
// columns, and its cpu.instructions column sums to the aggregate.
func TestIntervalCSV(t *testing.T) {
	res, _, sp, _ := runInstrumented(t, systems.LRB(), "reduction", 30_000_000)
	var buf bytes.Buffer
	if err := sp.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parsing CSV: %v", err)
	}
	if len(rows) < 3 {
		t.Fatalf("expected header plus multiple epochs, got %d rows", len(rows))
	}
	col := -1
	for i, name := range rows[0] {
		if name == "cpu.instructions" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no cpu.instructions column in %v", rows[0])
	}
	for _, want := range []string{"ipc.cpu", "ipc.gpu", "l2.miss_rate", "l3.miss_rate", "dram.bw_gbs", "noc.util"} {
		found := false
		for _, name := range rows[0] {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("derived column %q missing from header %v", want, rows[0])
		}
	}
	var sum uint64
	for _, row := range rows[1:] {
		v, err := strconv.ParseUint(row[col], 10, 64)
		if err != nil {
			t.Fatalf("bad delta %q: %v", row[col], err)
		}
		sum += v
	}
	if sum != res.CPU.Instructions {
		t.Errorf("CSV cpu.instructions sums to %d, Result has %d", sum, res.CPU.Instructions)
	}
}

// TestUninstrumentedRunUnchanged checks that attaching observability does
// not perturb simulated timing: the model must be measurement-invariant.
func TestUninstrumentedRunUnchanged(t *testing.T) {
	plain := MustNew(systems.LRB())
	resPlain, err := plain.Run(workload.MustGenerate("reduction"))
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	resObs, _, _, _ := runInstrumented(t, systems.LRB(), "reduction", 30_000_000)
	if resPlain.Total() != resObs.Total() {
		t.Errorf("instrumentation changed timing: plain %v, instrumented %v", resPlain.Total(), resObs.Total())
	}
	if resPlain.CPU.Instructions != resObs.CPU.Instructions {
		t.Errorf("instrumentation changed instruction count: %d vs %d",
			resPlain.CPU.Instructions, resObs.CPU.Instructions)
	}
}
