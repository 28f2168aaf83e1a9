// Package harness drives the paper's experiments end to end: it runs the
// simulator over the case-study systems and kernels and renders every
// table and figure of the evaluation section. The hetsweep command, the
// repository benchmarks and the examples all call into this package so
// the numbers they print come from one place.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"heteromem/internal/addrspace"
	"heteromem/internal/arena"
	"heteromem/internal/clock"
	"heteromem/internal/codegen"
	"heteromem/internal/config"
	"heteromem/internal/energy"
	"heteromem/internal/locality"
	"heteromem/internal/mem"
	"heteromem/internal/obs"
	"heteromem/internal/report"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// Cell is one (system, kernel) measurement.
type Cell struct {
	System string
	Kernel string
	Result sim.Result
}

// DefaultKernels returns every Table III kernel name.
func DefaultKernels() []string { return workload.Names() }

// QuickKernels returns the subset small enough for fast runs (tests,
// examples): everything but the two multi-million-instruction kernels.
func QuickKernels() []string {
	return []string{"reduction", "convolution", "merge-sort"}
}

// RunCaseStudies simulates the five Figure 5 systems over the named
// kernels with the default executor.
func RunCaseStudies(kernels []string) ([]Cell, error) {
	return Executor{}.RunCaseStudies(kernels)
}

// RunAddressSpaces simulates the four Figure 7 configurations (each
// address-space model with ideal communication and the shared cache)
// with the default executor.
func RunAddressSpaces(kernels []string) ([]Cell, error) {
	return Executor{}.RunAddressSpaces(kernels)
}

// Executor runs sweep cells on a fixed-size worker pool. A worker takes
// cells one at a time and builds a new simulator for each on its own
// arena, rewound first, so the simulator and everything it grows while
// it runs are carved from the slabs the worker's previous cell used. A
// cell therefore starts from exactly the state a fresh build has, a
// worker holds at most one live simulator, a sweep's memory grows with
// its workers rather than with its systems, and it never has more
// goroutines than workers.
type Executor struct {
	// Par is the number of workers; zero or negative means GOMAXPROCS.
	Par int
	// Obs, when non-nil, observes the sweep: run-ledger cell records,
	// hierarchical spans, live progress, aggregated metrics, worker
	// traces, per-cell interval sampling. Nil keeps the sweep fully
	// uninstrumented.
	Obs *Observer
	// Cache, when non-nil, memoizes cells through the content-addressed
	// result cache: every cell is probed up front, hits are served
	// without touching a simulator (no simulator is built for an all-hit
	// sweep), and only misses are dispatched to the worker pool, which
	// fills the cache as it completes them. Determinism makes the cache
	// exact — see internal/rescache.
	Cache *rescache.Store
	// CacheVerify, in (0, 1], re-simulates that fraction of cache hits
	// and fails the sweep loudly if a cached result differs from the
	// fresh simulation — the determinism tripwire. Sampling is
	// deterministic per key. Zero disables verification; ignored
	// without Cache.
	CacheVerify float64
}

// RunCaseStudies simulates the five Figure 5 systems over the named
// kernels.
func (e Executor) RunCaseStudies(kernels []string) ([]Cell, error) {
	return e.RunSystems(systems.CaseStudies(), kernels)
}

// RunAddressSpaces simulates the four Figure 7 configurations.
func (e Executor) RunAddressSpaces(kernels []string) ([]Cell, error) {
	return e.RunSystems(systems.AddressSpaces(), kernels)
}

// job is one pending cell of a sweep.
type job struct {
	ki, si int
	// verify re-simulates a cell already served from the cache and
	// compares against the cached result instead of storing it.
	verify bool
}

// RunSystems measures every (kernel, system) cell. Each cell is an
// independent simulation on a simulator built for it, so results are
// deterministic and returned in kernel-major, system-minor order
// regardless of scheduling; only the order in which cells complete
// depends on it. All failing cells are reported, each with its
// kernel/system context.
//
// With a Cache attached, the executor schedules cache-aware: all cells
// are probed before the worker pool starts, hits are materialized
// immediately (recorded as cached cells in the ledger), and only misses
// — plus the deterministically sampled verification subset of the hits
// — go through the pool.
func (e Executor) RunSystems(sysList []systems.System, kernels []string) ([]Cell, error) {
	programs := make([]*workload.Program, len(kernels))
	fps := make([]string, len(kernels))
	for i, kernel := range kernels {
		var err error
		if programs[i], fps[i], err = internProgram(kernel); err != nil {
			return nil, err
		}
	}

	n := len(kernels) * len(sysList)
	obsv := e.Obs
	specs := make([]string, len(sysList))
	if obsv != nil || e.Cache != nil {
		for i, sys := range sysList {
			specs[i] = systems.Hash(sys)
		}
	}

	cells := make([]Cell, n)
	errs := make([]error, n) // disjoint slots; no mutex needed

	// Cache probe phase: resolve every hit before the pool spins up, so
	// a warm sweep never constructs a simulator. pending collects the
	// jobs that still need a worker (misses, and hits sampled for
	// verification); hits remembers what to report to the observer, if
	// there is one, once it has begun.
	type hit struct {
		ki, si  int
		probeNS int64
		at      time.Time
	}
	var keys []rescache.Key
	var hits []hit
	var pending []job
	if e.Cache != nil {
		keys = make([]rescache.Key, n)
		for ki, p := range programs {
			for si := range sysList {
				idx := ki*len(sysList) + si
				keys[idx] = cellKey(specs[si], p, fps[ki], sim.Options{})
				// Only an observer reports a hit's probe time.
				var at time.Time
				if obsv != nil {
					at = time.Now()
				}
				res, ok := e.Cache.Get(keys[idx])
				if !ok {
					pending = append(pending, job{ki: ki, si: si})
					continue
				}
				// The hash is name-invariant: a differently-named file for
				// the same point hits, so restamp the cell's own labels.
				res.System, res.Kernel = sysList[si].Name, p.Name
				cells[idx] = Cell{System: sysList[si].Name, Kernel: p.Name, Result: res}
				if obsv != nil {
					hits = append(hits, hit{ki: ki, si: si, probeNS: int64(time.Since(at)), at: at})
				}
				if verifySampled(keys[idx], e.CacheVerify) {
					pending = append(pending, job{ki: ki, si: si, verify: true})
				}
			}
		}
	} else {
		for ki := range programs {
			for si := range sysList {
				pending = append(pending, job{ki: ki, si: si})
			}
		}
	}

	workers := e.Par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(pending))
	jobs := make(chan job, len(pending))
	for _, j := range pending {
		jobs <- j
	}
	close(jobs)

	obsv.begin(n, workers, e.Cache)
	for _, h := range hits {
		si := h.si
		obsv.cachedCell(sysList[si].Name, specs[si], programs[h.ki].Name,
			cells[h.ki*len(sysList)+si].Result, h.probeNS, h.at)
	}
	// Every pending cell is ready once the probe phase ends, so a cell's
	// queue wait is its start instant minus this one.
	ready := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every cell's simulator is carved from the worker's arena,
			// rewound before each build: nothing references the previous
			// cell's simulator by then.
			ar := arena.New()
			// Observability state is per worker: one registry (and
			// optional host profiler / interval sampler) shared by the
			// worker's successive simulators, reset before every cell so
			// each post-run snapshot covers exactly that cell. All of it
			// stays nil, and the simulator uninstrumented, without an
			// Observer.
			var reg *obs.Registry
			var hp *obs.HostProf
			var sampler *obs.Sampler
			if obsv != nil {
				reg = obs.NewRegistry()
				if obsv.HostProfEvery > 0 {
					hp = obs.NewHostProf(obsv.HostProfEvery)
				}
				if obsv.IntervalPS > 0 {
					sampler = obs.NewSampler(reg, obsv.IntervalPS)
				}
			}
			for j := range jobs {
				idx := j.ki*len(sysList) + j.si
				p, sys := programs[j.ki], sysList[j.si]
				kind := "kernel"
				if j.verify {
					kind = "verify"
				}
				span := obsv.beginCell(sys.Name, p.Name, kind)
				started := time.Now()
				ar.Reset()
				s, err := sim.NewWithOptions(sys, sim.Options{
					Metrics: reg, HostProf: hp, Sampler: sampler, Arena: ar,
				})
				reg.Reset()
				sampler.Reset()
				var res sim.Result
				if err == nil {
					obsv.simBuilt()
					s.SetRunSpan(span)
					res, err = s.Run(p)
				}
				if j.verify && err == nil && res != cells[idx].Result {
					err = fmt.Errorf("%w (key %s)", ErrCacheMismatch, keys[idx].Digest())
				}
				if obsv != nil {
					rec := newCellRecord(sys.Name, specs[j.si], p.Name, res, err)
					rec.Verify = j.verify
					obsv.endCell(w, span, rec, reg.Snapshot(), ready, started)
					obsv.writeIntervalCSV(sys.Name, p.Name, sampler)
				}
				if err != nil {
					errs[idx] = fmt.Errorf("%s on %s: %w", p.Name, sys.Name, err)
					continue
				}
				if j.verify {
					continue
				}
				// (miss) fill the cache before publishing the cell. A
				// failed write leaves the result unstored; the store
				// latches the error for the CLI to surface as a warning.
				if e.Cache != nil {
					_ = e.Cache.Put(keys[idx], res)
				}
				cells[idx] = Cell{System: sys.Name, Kernel: p.Name, Result: res}
			}
		}(w)
	}
	wg.Wait()
	obsv.finish()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return cells, nil
}

// baseline returns the cell for the named system within one kernel's
// group, used as the normalisation denominator.
func baseline(cells []Cell, kernel, system string) (Cell, bool) {
	for _, c := range cells {
		if c.Kernel == kernel && c.System == system {
			return c, true
		}
	}
	return Cell{}, false
}

func kernelsOf(cells []Cell) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Kernel] {
			seen[c.Kernel] = true
			out = append(out, c.Kernel)
		}
	}
	return out
}

// RenderFigure5 renders the execution-time breakdown (sequential /
// parallel / communication), normalised per kernel to the CPU+GPU
// system, as Figure 5 plots it.
func RenderFigure5(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Figure 5: execution time breakdown (normalised to CPU+GPU; s=sequential p=parallel c=communication)\n\n")
	for _, kernel := range kernelsOf(cells) {
		base, ok := baseline(cells, kernel, "CPU+GPU")
		if !ok {
			base = Cell{Result: cells[0].Result}
		}
		tbl := report.Table{
			Title:   kernel,
			Headers: []string{"system", "seq", "par", "comm", "total", "breakdown"},
		}
		for _, c := range cells {
			if c.Kernel != kernel {
				continue
			}
			seq, par, com := c.Result.Normalized(base.Result)
			tbl.AddRow(
				c.System,
				report.F3(seq), report.F3(par), report.F3(com), report.F3(seq+par+com),
				report.StackedBar([]float64{seq, par, com}, []rune{'s', 'p', 'c'}, 40),
			)
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure6 renders communication overhead only (Figure 6).
func RenderFigure6(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Figure 6: communication overhead\n\n")
	for _, kernel := range kernelsOf(cells) {
		var maxComm clock.Duration
		for _, c := range cells {
			if c.Kernel == kernel && c.Result.Communication > maxComm {
				maxComm = c.Result.Communication
			}
		}
		tbl := report.Table{
			Title:   kernel,
			Headers: []string{"system", "comm", "share", "relative"},
		}
		for _, c := range cells {
			if c.Kernel != kernel {
				continue
			}
			rel := 0.0
			if maxComm > 0 {
				rel = float64(c.Result.Communication) / float64(maxComm)
			}
			tbl.AddRow(
				c.System,
				report.Dur(c.Result.Communication),
				report.Pct(c.Result.CommFraction()),
				report.Bar(rel, 30),
			)
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure7 renders the address-space comparison under ideal
// communication (Figure 7), normalised per kernel to the unified model.
func RenderFigure7(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Figure 7: memory address space design options, ideal communication (normalised to unified)\n\n")
	tbl := report.Table{Headers: []string{"kernel", "UNI", "DIS", "PAS", "ADSM", "max delta"}}
	for _, kernel := range kernelsOf(cells) {
		vals := map[string]float64{}
		var base float64
		for _, c := range cells {
			if c.Kernel != kernel {
				continue
			}
			vals[c.System] = float64(c.Result.Total())
			if c.System == "ideal-unified" {
				base = float64(c.Result.Total())
			}
		}
		if base == 0 {
			continue
		}
		uni := vals["ideal-unified"] / base
		dis := vals["ideal-disjoint"] / base
		pas := vals["ideal-partially-shared"] / base
		adsm := vals["ideal-adsm"] / base
		maxd := 0.0
		for _, v := range []float64{uni, dis, pas, adsm} {
			if d := v - 1; d > maxd {
				maxd = d
			}
			if d := 1 - v; d > maxd {
				maxd = d
			}
		}
		tbl.AddRow(kernel, report.F3(uni), report.F3(dis), report.F3(pas), report.F3(adsm), report.Pct(maxd))
	}
	b.WriteString(tbl.String())
	return b.String()
}

// RenderTable1 renders the Table I survey.
func RenderTable1() string {
	tbl := report.Table{
		Title: "Table I: summary of heterogeneous computing memory systems",
		Headers: []string{"scheme", "address space", "connection", "coherence",
			"shared data", "consistency", "synchronization", "locality"},
	}
	for _, e := range systems.TableI() {
		tbl.AddRow(e.Scheme, e.AddressSpace, e.Connection, e.Coherence,
			e.SharedDataUse, e.Consistency, e.Synchronization, e.Locality)
	}
	f := systems.Findings()
	return tbl.String() + fmt.Sprintf(
		"\n%d systems: %d disjoint, %d unified, %d partially shared, %d ADSM; fully-coherent strong-consistent unified: %d\n",
		f.Total, f.Disjoint, f.Unified, f.PartiallyShared, f.ADSM, f.FullyCoherentUnified)
}

// RenderTable2 renders the baseline configuration (Table II).
func RenderTable2() string {
	cpu := config.BaselineCPU()
	gpu := config.BaselineGPU()
	m := mem.TableII()
	tbl := report.Table{
		Title:   "Table II: baseline system configuration",
		Headers: []string{"component", "CPU", "GPU"},
	}
	tbl.AddRow("cores", 1, 1)
	tbl.AddRow("execution engine",
		fmt.Sprintf("%.1fGHz out-of-order (%d-wide, ROB %d)", cpu.FreqMHz/1000, cpu.IssueWidth, cpu.ROBSize),
		fmt.Sprintf("%.1fGHz in-order %d-wide SIMD", gpu.FreqMHz/1000, gpu.SIMDWidth))
	tbl.AddRow("branch predictor",
		fmt.Sprintf("gshare (2^%d entries)", cpu.PredictorTableBits),
		"N/A (stall on branch)")
	tbl.AddRow("L1 D-cache",
		fmt.Sprintf("%d-way %dKB (%v)", m.CPUL1D.Ways, m.CPUL1D.SizeBytes>>10, m.CPUL1DLat),
		fmt.Sprintf("%d-way %dKB (%v)", m.GPUL1D.Ways, m.GPUL1D.SizeBytes>>10, m.GPUL1DLat))
	tbl.AddRow("software-managed cache", "-", fmt.Sprintf("%dKB (%v)", m.SWCacheBytes>>10, m.SWCacheLat))
	tbl.AddRow("L2", fmt.Sprintf("%d-way %dKB (%v)", m.CPUL2.Ways, m.CPUL2.SizeBytes>>10, m.CPUL2Lat), "N/A")
	tbl.AddRow("L3 (shared)",
		fmt.Sprintf("%d-way %dMB, %d tiles (%v)", m.L3Tile.Ways, m.L3Tiles*m.L3Tile.SizeBytes>>20, m.L3Tiles, m.L3Lat), "")
	tbl.AddRow("interconnection", "ring-bus network", "")
	tbl.AddRow("DRAM",
		fmt.Sprintf("DDR3-1333, %d controllers, %.1fGB/s, FR-FCFS", m.DRAM.Channels, m.DRAM.PeakBandwidthGBs()), "")
	return tbl.String()
}

// RenderTable3 renders the benchmark characteristics, checking the
// generated programs against the published values.
func RenderTable3() string {
	tbl := report.Table{
		Title:   "Table III: benchmark characteristics (generated vs paper)",
		Headers: []string{"name", "pattern", "CPU insts", "GPU insts", "serial", "#comm", "initial transfer (B)", "matches paper"},
	}
	paper := workload.TableIII()
	for i, name := range workload.Names() {
		// Characteristics reads phase lengths only, so the opened program
		// never generates its instructions.
		c := workload.MustOpen(name).Characteristics()
		match := c == paper[i]
		tbl.AddRow(c.Name, c.Pattern, c.CPUInsts, c.GPUInsts, c.SerialInsts, c.Comms, c.InitialTransferBytes, match)
	}
	return tbl.String()
}

// RenderTable4 renders the communication modeling parameters.
func RenderTable4() string {
	p := config.TableIV()
	tbl := report.Table{
		Title:   "Table IV: communication overhead modeling parameters",
		Headers: []string{"name", "description", "system", "latency"},
	}
	tbl.AddRow("api-pci", "mem copy using PCI-E", "CPU+GPU, GMAC", fmt.Sprintf("%d + bytes@%.0fGB/s", p.APIPCICycles, p.PCIRateGBs))
	tbl.AddRow("api-acq", "acquire action", "LRB", p.APIAcqCycles)
	tbl.AddRow("api-tr", "data transfer", "LRB", fmt.Sprintf("%d + bytes@%.0fGB/s", p.APITrCycles, p.PCIRateGBs))
	tbl.AddRow("lib-pf", "page fault", "LRB", p.LibPFCycles)
	return tbl.String()
}

// RenderTable5 renders the programmability study, generated vs paper.
func RenderTable5() string {
	tbl := report.Table{
		Title:   "Table V: source lines to handle data communication",
		Headers: []string{"kernel", "Comp", "UNI", "PAS", "DIS", "ADSM", "matches paper"},
	}
	paper := codegen.PaperTableV()
	for i, r := range codegen.TableV() {
		tbl.AddRow(r.Kernel, r.Comp, r.UNI, r.PAS, r.DIS, r.ADSM, r == paper[i])
	}
	return tbl.String()
}

// RenderEnergy renders the estimated energy breakdown per system for each
// kernel in the sweep — the paper's power/energy motivation quantified.
func RenderEnergy(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Energy breakdown (nJ, event-energy model; see internal/energy)\n\n")
	for _, kernel := range kernelsOf(cells) {
		tbl := report.Table{
			Title:   kernel,
			Headers: []string{"system", "cores", "caches", "dram", "noc", "comm", "total"},
		}
		for _, c := range cells {
			if c.Kernel != kernel {
				continue
			}
			e := energy.EstimateDefault(c.Result)
			tbl.AddRow(c.System,
				fmt.Sprintf("%.0f", e.Cores), fmt.Sprintf("%.0f", e.Caches),
				fmt.Sprintf("%.0f", e.DRAM), fmt.Sprintf("%.0f", e.Interconnect),
				fmt.Sprintf("%.0f", e.Communication), fmt.Sprintf("%.0f", e.Total()))
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderLocalityOptions renders the locality-management option counts per
// address-space model (conclusion 3).
func RenderLocalityOptions() string {
	tbl := report.Table{
		Title:   "Locality management options per address space (Section II-B)",
		Headers: []string{"model", "well-formed", "desirable", "schemes"},
	}
	for _, m := range addrspace.AllModels() {
		opts := locality.DesirableOptions(m)
		var names []string
		for _, s := range opts {
			names = append(names, s.Name())
		}
		preview := strings.Join(names, ", ")
		if len(preview) > 70 {
			preview = preview[:67] + "..."
		}
		tbl.AddRow(m, len(locality.Options(m)), len(opts), preview)
	}
	return tbl.String()
}
