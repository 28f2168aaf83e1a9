// Package sim is the top-level simulator: it binds a system configuration
// (address-space model + communication fabric + programming-model
// behaviours) to the baseline cores and memory hierarchy, executes a
// workload phase program, and splits execution time into the paper's
// three categories — sequential, parallel and communication (Figure 5).
package sim

import (
	"fmt"
	"time"

	"heteromem/internal/addrspace"
	"heteromem/internal/arena"
	"heteromem/internal/clock"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/cpu"
	"heteromem/internal/dram"
	"heteromem/internal/gpu"
	"heteromem/internal/isa"
	"heteromem/internal/locality"
	"heteromem/internal/mem"
	"heteromem/internal/model"
	"heteromem/internal/noc"
	"heteromem/internal/obs"
	"heteromem/internal/systems"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// Result is the outcome of running one kernel on one system.
type Result struct {
	System string
	Kernel string
	// MemTech names the terminal memory technology behind the L3
	// (dram, hbm, nvm, dram-cache).
	MemTech string
	// Translation labels the address-translation front-end the run used
	// ("off" for the free-translation baseline, otherwise e.g.
	// "xlat-priv-2m").
	Translation string

	// The Figure 5 breakdown. Total = Sequential + Parallel + Communication.
	Sequential    clock.Duration
	Parallel      clock.Duration
	Communication clock.Duration

	CPU    cpu.Stats
	GPU    gpu.Stats
	Mem    mem.Stats
	Fabric comm.Stats
	// FabricName identifies the communication mechanism the run used
	// (pcie, pcie-async, pci-aperture, memctrl, ideal).
	FabricName string
	Space      addrspace.Stats
	Ring       noc.Stats
	DRAM       dram.Stats

	// PageFaults counts lib-pf events (LRB first-touch).
	PageFaults int
	// OwnershipOps counts injected acquire/release actions.
	OwnershipOps int
}

// Total returns the end-to-end execution time.
func (r Result) Total() clock.Duration {
	return r.Sequential + r.Parallel + r.Communication
}

// CommFraction returns communication time as a fraction of the total.
func (r Result) CommFraction() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Communication) / float64(t)
}

// Normalized returns (seq, par, comm) as fractions of base's total, the
// form Figure 5 plots.
func (r Result) Normalized(base Result) (seq, par, com float64) {
	t := float64(base.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(r.Sequential) / t, float64(r.Parallel) / t, float64(r.Communication) / t
}

// Options tweak a simulator away from the baseline, for ablations.
type Options struct {
	// DisableCoalescing issues one GPU memory request per SIMD lane.
	DisableCoalescing bool
	// Locality applies an explicit locality-management scheme: the push
	// instructions the scheme requires for the program's objects are
	// injected ahead of execution (Section II-B / V-D). Nil runs fully
	// implicit management.
	Locality *locality.Scheme

	// Arena, when non-nil, backs the simulator's metadata with
	// bump-allocated slabs instead of individual heap allocations: at
	// construction the cache tag/state arrays, MSHR files, ring links
	// and routes, DRAM bank and bus arrays, backend channel resources,
	// core replay rings and predictor table, and while it runs the
	// DRAM-cache directory chunks, a grown GPU replay ring and an
	// uncapped MSHR file's registers. The simulator carves from the
	// arena for its whole life, so it must run on the goroutine that
	// owns the arena, and the caller must not Reset the arena while
	// simulators built from it are still in use. Each sweep worker
	// rewinds its one arena and builds a new simulator from it for every
	// cell (see internal/harness), so a cell starts from exactly the
	// state a fresh build has: the arena zeroes every carving.
	Arena *arena.Arena

	// Metrics attaches an observability registry: every component's
	// counts appear under its namespace (cpu.*, gpu.*, mem.*, noc.*,
	// dram.*, comm.*, addrspace.*), flushed before every interval sample
	// and at run end. Nil leaves the run unobserved.
	Metrics *obs.Registry
	// Sampler snapshots Metrics at fixed simulated-time intervals,
	// building the per-epoch time series. Must be built over the same
	// registry as Metrics. The simulator registers the standard derived
	// columns (IPC, miss rates, DRAM bandwidth, ring utilisation) on it.
	Sampler *obs.Sampler
	// Tracer records phase/transfer spans and programming-model instants
	// in Chrome trace-event form.
	Tracer *obs.Tracer
	// HostProf attaches sampled host wall-clock self-profiling: per-phase
	// attribution (sim.phase.*) plus sampled per-stage attribution in the
	// memory pipeline (memsys.*), flushed into Metrics as host.* counters
	// through the batched path. Requires Metrics to be visible anywhere.
	HostProf *obs.HostProf
}

// Simulator runs kernels on one system configuration. A Simulator is
// stateful across phases of a run (caches stay warm, first-touch state
// persists), so each measurement runs on a new build: sweep harnesses
// build one per cell on a rewound arena (Options.Arena), and Reset
// rebuilds one in place.
type Simulator struct {
	sys     systems.System
	opts    Options
	hier    *mem.Hierarchy
	cpuCore *cpu.Core
	gpuCore *gpu.Core
	fabric  *comm.Fabric
	space   *addrspace.Space

	// proto is the programming-model protocol: it owns all model state
	// (pending acquires, queued first-touch faults, the async-ready
	// horizon) and is hooked at phase boundaries. env is the machine
	// surface it acts through; env.res is repointed at each Run's result.
	proto *model.Protocol
	env   protoEnv

	// sharedHandle is the space object ownership operations act on.
	sharedHandle addrspace.Object
	// scheme is the locality-management scheme to apply, if any.
	scheme *locality.Scheme

	// Observability sinks, all nil-safe. obs carries the address space's
	// and the fabric's counts into metrics; the hierarchy and the cores
	// carry their own.
	metrics *obs.Registry
	obs     obs.Batch
	sampler *obs.Sampler
	tracer  *obs.Tracer

	// Host-time self-profiling (Options.HostProf): phase sections are
	// timed unconditionally (one clock pair per phase), translation and
	// the memory path's stages by sampling inside mem.Hierarchy.Access
	// and memsys.Chain.
	hostProf                *obs.HostProf
	secSeq, secPar, secXfer int
	// runSpan, when set (SetRunSpan), parents one host-time ledger span
	// per executed phase.
	runSpan *obs.Span

	// Scratch buffers reused across phases and runs so the replay path
	// does not allocate per phase: the parallel-phase prologue and the
	// locality-scheme push streams are rebuilt in place each time.
	prologue  trace.Stream
	cpuPushes trace.Stream
	gpuPushes trace.Stream
}

// New returns a simulator for the system with the Table II baseline.
func New(sys systems.System) (*Simulator, error) {
	return NewWithOptions(sys, Options{})
}

// NewWithOptions returns a simulator with ablation options applied. The
// system is validated first, so incoherent design points (ownership over
// a space without ownership control, fault granularity without faults)
// fail here with the system's name rather than misbehaving mid-run.
func NewWithOptions(sys systems.System, opts Options) (*Simulator, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	memCfg := mem.TableII()
	if !sys.MemTech.IsZero() {
		// The system's mem_tech axis selects the hierarchy's terminal
		// backend.
		memCfg.Tech = sys.MemTech
	}
	if !sys.Translation.IsZero() {
		// The translation axis front-ends the hierarchy's access path.
		// The "auto" IOMMU mode resolves from the fabric here: only the
		// system knows whether its GPU sits behind an I/O interconnect.
		memCfg.Xlat = sys.Translation.WithIOMMUResolved(sys.Fabric.RemoteDevice())
	}
	hier, err := mem.NewIn(opts.Arena, memCfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	space, err := addrspace.New(sys.Model, 4096)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	proto, err := model.New(sys.Protocol, sys.FaultGranularityBytes)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulator{
		sys:    sys,
		opts:   opts,
		hier:   hier,
		fabric: comm.New(sys.Fabric, sys.Params, hier.DRAM()),
		space:  space,
		proto:  proto,
	}
	s.env.s = s
	s.cpuCore = cpu.NewIn(opts.Arena, config.BaselineCPU(), hier, sys.Params.Latency)
	s.gpuCore = gpu.NewIn(opts.Arena, config.BaselineGPU(), hier, sys.Params.Latency, memCfg.SWCacheLat)
	s.gpuCore.Coalesce = !opts.DisableCoalescing
	if opts.Locality != nil {
		if err := opts.Locality.Validate(sys.Model); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.scheme = opts.Locality
	}
	if opts.Metrics != nil {
		s.metrics = opts.Metrics
		s.hier.Instrument(opts.Metrics)
		s.space.Instrument(&s.obs, opts.Metrics)
		s.fabric.Instrument(&s.obs, opts.Metrics)
		s.cpuCore.Instrument(opts.Metrics)
		s.gpuCore.Instrument(opts.Metrics)
	}
	s.sampler = opts.Sampler
	s.tracer = opts.Tracer
	if opts.HostProf != nil {
		s.hostProf = opts.HostProf
		s.hier.InstrumentHost(opts.HostProf)
		s.secSeq = opts.HostProf.Section("sim.phase.sequential")
		s.secPar = opts.HostProf.Section("sim.phase.parallel")
		s.secXfer = opts.HostProf.Section("sim.phase.transfer")
	}
	s.registerDerived()
	return s, nil
}

// SetRunSpan sets (or clears, with nil) the host-time ledger span the
// next Run's phases will be children of: each executed phase writes a
// kind-"phase" span under it, completing the sweep → design-point →
// kernel → phase hierarchy. The caller owns and Ends the parent span.
func (s *Simulator) SetRunSpan(span *obs.Span) { s.runSpan = span }

// registerDerived adds the standard per-epoch derived columns to the
// sampler: they need configuration knowledge (clock periods, tile and
// link counts) that only the simulator has.
func (s *Simulator) registerDerived() {
	if s.sampler == nil {
		return
	}
	cpuCycle := float64(config.BaselineCPU().Domain().PeriodPS())
	gpuCycle := float64(config.BaselineGPU().Domain().PeriodPS())
	ipc := func(counter string, cycle float64) func(obs.Sample) float64 {
		return func(sm obs.Sample) float64 {
			if sm.DT() == 0 {
				return 0
			}
			return float64(sm.Delta(counter)) * cycle / float64(sm.DT())
		}
	}
	s.sampler.AddDerived("ipc.cpu", ipc("cpu.instructions", cpuCycle))
	s.sampler.AddDerived("ipc.gpu", ipc("gpu.instructions", gpuCycle))
	s.sampler.AddDerived("l2.miss_rate", func(sm obs.Sample) float64 {
		h, m := sm.Delta("mem.cpu.l2.hits"), sm.Delta("mem.cpu.l2.misses")
		if h+m == 0 {
			return 0
		}
		return float64(m) / float64(h+m)
	})
	tiles := s.hier.Config().L3Tiles
	s.sampler.AddDerived("l3.miss_rate", func(sm obs.Sample) float64 {
		var h, m uint64
		for t := 0; t < tiles; t++ {
			h += sm.Delta(fmt.Sprintf("mem.l3.t%d.hits", t))
			m += sm.Delta(fmt.Sprintf("mem.l3.t%d.misses", t))
		}
		if h+m == 0 {
			return 0
		}
		return float64(m) / float64(h+m)
	})
	s.sampler.AddDerived("dram.bw_gbs", func(sm obs.Sample) float64 {
		if sm.DT() == 0 {
			return 0
		}
		// bytes/ps * 1e12 = bytes/s; /1e9 = GB/s.
		return float64(sm.Delta("dram.bytes")) * 1000 / float64(sm.DT())
	})
	links := float64(s.hier.Ring().Links())
	s.sampler.AddDerived("noc.util", func(sm obs.Sample) float64 {
		if sm.DT() == 0 {
			return 0
		}
		return float64(sm.Delta("noc.link_busy_ps")) / (float64(sm.DT()) * links)
	})
}

// MustNew is New but panics on configuration error.
func MustNew(sys systems.System) *Simulator {
	s, err := New(sys)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset rebuilds the simulator in place, so the next Run starts cold
// exactly as a new build does: it builds a fresh simulator from the
// system and Options this one was built with, takes the fresh
// simulator's state (a run span set with SetRunSpan is cleared) and
// clears the attached registry and sampler. A simulator built from an
// arena re-carves from it, so the arena grows by one build per Reset
// until its owner rewinds it. Sweeps build each cell on a rewound arena
// instead (internal/harness); the one caller is the benchmark's traced
// pass (bench -trace 1), which keeps one simulator per system.
func (s *Simulator) Reset() {
	fresh, err := NewWithOptions(s.sys, s.opts)
	if err != nil {
		// The same system and options built s, so they cannot fail now.
		panic(err)
	}
	*s = *fresh
	s.env.s = s
	s.metrics.Reset()
	s.sampler.Reset()
}

// flushObs carries every count accumulated since the last flush into
// the registry, so interval samples and registry reads observe them:
// the cores' live executions, the hierarchy and its components, the
// address space and fabric, and the host-time self-profiler. It is the
// one flush point of a run. A no-op when the run is uninstrumented.
func (s *Simulator) flushObs() {
	if s.metrics == nil {
		return
	}
	s.cpuCore.FlushObs()
	s.gpuCore.FlushObs()
	s.hier.FlushObs()
	s.obs.Flush()
	s.hostProf.FlushTo(s.metrics)
}

// phaseSection maps a phase kind onto its host-profiler section.
func (s *Simulator) phaseSection(k workload.PhaseKind) int {
	switch k {
	case workload.Sequential:
		return s.secSeq
	case workload.Parallel:
		return s.secPar
	default:
		return s.secXfer
	}
}

// Hierarchy exposes the memory system for inspection.
func (s *Simulator) Hierarchy() *mem.Hierarchy { return s.hier }

// Space exposes the address space for inspection.
func (s *Simulator) Space() *addrspace.Space { return s.space }

// Metrics returns the attached observability registry (nil when the run
// is uninstrumented).
func (s *Simulator) Metrics() *obs.Registry { return s.metrics }

// allocate registers the program's objects with the address space so the
// run accounts for the model's page-table maintenance. Regions the model
// does not provide degrade to the accessing PU's private space, exactly
// as a programmer would restructure the allocation.
func (s *Simulator) allocate(p *workload.Program) error {
	for _, o := range p.Objects {
		r := o.Region
		if !s.space.SupportsRegion(r) {
			if o.User == mem.GPU {
				r = addrspace.GPUPrivate
			} else {
				r = addrspace.CPUPrivate
			}
		}
		obj, err := s.space.Alloc(uint64(o.Size), r)
		if err != nil {
			return err
		}
		if obj.Region == addrspace.Shared && s.sharedHandle.Size == 0 {
			s.sharedHandle = obj
		}
	}
	return nil
}

// Run executes the program and returns its timing breakdown.
func (s *Simulator) Run(p *workload.Program) (Result, error) {
	res := Result{
		System: s.sys.Name, Kernel: p.Name,
		MemTech:     s.hier.TechKind().String(),
		Translation: s.sys.Translation.Label(),
	}
	if err := p.Validate(); err != nil {
		return res, fmt.Errorf("sim: %w", err)
	}
	if err := s.allocate(p); err != nil {
		return res, fmt.Errorf("sim: allocating %s on %s: %w", p.Name, s.sys.Name, err)
	}
	s.env.res = &res
	now := clock.Time(0)
	now = s.applyLocality(p, now, &res)
	s.flushObs()
	s.sampler.Advance(uint64(now))
	for i := range p.Phases {
		ph := &p.Phases[i]
		phaseStart := now
		var phaseSpan *obs.Span
		if s.runSpan != nil {
			phaseSpan = s.runSpan.Child("phase", fmt.Sprintf("phase%d.%s", i, ph.Kind))
		}
		var hostStart time.Time
		if s.hostProf != nil {
			hostStart = time.Now()
		}
		var err error
		switch ph.Kind {
		case workload.Sequential:
			now = s.runSequential(ph, now, &res)
		case workload.Parallel:
			now = s.runParallel(ph, now, &res)
		case workload.Transfer:
			now, err = s.runTransfer(ph, now, &res)
		default:
			err = fmt.Errorf("sim: unknown phase kind %v", ph.Kind)
		}
		if s.hostProf != nil {
			s.hostProf.Add(s.phaseSection(ph.Kind), time.Since(hostStart))
		}
		if err != nil {
			phaseSpan.End(map[string]any{"err": err.Error()})
			return res, fmt.Errorf("sim: %s phase %d on %s: %w", p.Name, i, s.sys.Name, err)
		}
		phaseSpan.End(map[string]any{"sim_ps": uint64(now) - uint64(phaseStart)})
		s.tracer.Span(obs.TrackSim, fmt.Sprintf("phase%d.%s", i, ph.Kind), "phase",
			uint64(phaseStart), uint64(now), nil)
		s.flushObs()
		s.sampler.Advance(uint64(now))
	}
	// Program end is a synchronisation point: outstanding asynchronous
	// copies must land before the program completes.
	now = s.proto.SyncPoint(&s.env, now)
	s.flushObs()
	s.sampler.Finish(uint64(now))
	res.Mem = s.hier.Stats()
	res.Fabric = s.fabric.Stats()
	res.FabricName = s.sys.Fabric.String()
	res.Space = s.space.Stats()
	res.Ring = s.hier.Ring().Stats()
	res.DRAM = s.hier.DRAM().Stats()
	return res, nil
}

// applyLocality injects the scheme's explicit push placements at program
// start: the paper's Section V-D observation is that locality management
// changes performance only through these additional instructions.
func (s *Simulator) applyLocality(p *workload.Program, now clock.Time, res *Result) clock.Time {
	if s.scheme == nil {
		return now
	}
	s.cpuPushes, s.gpuPushes = s.cpuPushes[:0], s.gpuPushes[:0]
	for _, op := range locality.Plan(*s.scheme, p.Objects) {
		in := trace.Inst{Kind: isa.Push, Addr: op.Addr, Size: op.Size, PushLevel: op.Level}
		if op.PU == mem.CPU {
			s.cpuPushes = append(s.cpuPushes, in)
		} else {
			s.gpuPushes = append(s.gpuPushes, in)
		}
	}
	end := now
	if len(s.cpuPushes) > 0 {
		cEnd, cst := s.cpuCore.RunStream(s.cpuPushes, now)
		addCPUStats(&res.CPU, cst)
		end = clock.Max(end, cEnd)
	}
	if len(s.gpuPushes) > 0 {
		gEnd, gst := s.gpuCore.RunStream(s.gpuPushes, now)
		addGPUStats(&res.GPU, gst)
		end = clock.Max(end, gEnd)
	}
	res.Sequential += end.Sub(now)
	return end
}

func (s *Simulator) runSequential(ph *workload.Phase, now clock.Time, res *Result) clock.Time {
	end, st := s.cpuCore.Run(ph.CPUSource(), now)
	res.Sequential += st.Duration - st.CommTime
	res.Communication += st.CommTime
	addCPUStats(&res.CPU, st)
	return end
}

func (s *Simulator) runParallel(ph *workload.Phase, now clock.Time, res *Result) clock.Time {
	start := now
	gpuStart := start

	// Programming-model events at kernel entry (e.g. LRB's ownership
	// acquire and queued first-touch faults) arrive as a GPU prologue
	// stream from the protocol.
	prologue := s.proto.KernelEntry(&s.env, start, s.prologue[:0])
	s.prologue = prologue // keep any growth for the next phase
	if len(prologue) > 0 {
		end, st := s.gpuCore.RunStream(prologue, gpuStart)
		s.tracer.Span(obs.TrackGPU, "prologue", "model", uint64(gpuStart), uint64(end), nil)
		gpuStart = end
		addGPUStats(&res.GPU, st)
	}

	// Co-simulate the two halves: repeatedly advance whichever core is
	// behind in simulated time up to the other's clock, so their traffic
	// interleaves on the shared hierarchy (ring links, L3 tiles, DRAM) in
	// time order instead of one core reserving everything first.
	ge := s.gpuCore.Begin(ph.GPUSource(), gpuStart)
	ce := s.cpuCore.Begin(ph.CPUSource(), start)
	s.runCoSim(ge, ce)
	gpuEnd, gst := ge.End()
	cpuEnd, cst := ce.End()
	addCPUStats(&res.CPU, cst)
	addGPUStats(&res.GPU, gst)
	s.tracer.Span(obs.TrackCPU, "cpu.parallel", "compute", uint64(start), uint64(cpuEnd), nil)
	s.tracer.Span(obs.TrackGPU, "gpu.parallel", "compute", uint64(gpuStart), uint64(gpuEnd), nil)

	// Communication inside a parallel phase counts only where it is
	// exposed on the critical path: a GPU-side delay (async-copy wait,
	// ownership acquire, page faults, in-trace comm ops) that hides under
	// a longer CPU half costs nothing — that is exactly how GMAC hides
	// its copies (Section V-A).
	gpuDelay := gpuStart.Sub(start) + gst.CommTime
	cpuDelay := cst.CommTime
	var exposed clock.Duration
	if gpuEnd > cpuEnd {
		exposed += minDur(gpuDelay, gpuEnd.Sub(cpuEnd))
	}
	if cpuEnd > gpuEnd {
		exposed += minDur(cpuDelay, cpuEnd.Sub(gpuEnd))
	}

	end := clock.Max(cpuEnd, gpuEnd)
	span := end.Sub(start)
	if span > exposed {
		res.Parallel += span - exposed
	}
	res.Communication += exposed
	return end
}

// runCoSim advances the two halves of a parallel phase in lock step:
// repeatedly step whichever core is behind in simulated time up to the
// other's clock, so their traffic interleaves on the shared hierarchy in
// time order.
func (s *Simulator) runCoSim(ge *gpu.Execution, ce *cpu.Execution) {
	const forever = clock.Time(^uint64(0))
	for !ge.Done() || !ce.Done() {
		switch {
		case ge.Done():
			ce.StepUntil(forever)
		case ce.Done():
			ge.StepUntil(forever)
		case ge.Now() <= ce.Now():
			ge.StepUntil(ce.Now())
		default:
			ce.StepUntil(ge.Now())
		}
		if s.sampler != nil {
			s.flushObs()
			lo := ge.Now()
			if ce.Now() < lo {
				lo = ce.Now()
			}
			s.sampler.Advance(uint64(lo))
		}
	}
}

func minDur(a, b clock.Duration) clock.Duration {
	if a < b {
		return a
	}
	return b
}

func (s *Simulator) runTransfer(ph *workload.Phase, now clock.Time, res *Result) (clock.Time, error) {
	if ph.Dir == workload.DeviceToHost {
		// Kernel return: a protocol whose results already live in a space
		// the CPU can address elides the bulk copy — LRB hands ownership
		// back to the CPU, GMAC waits at its return-synchronisation point.
		end, handled, err := s.proto.KernelReturn(&s.env, now)
		if handled || err != nil {
			return end, err
		}
	} else {
		// Before a host-to-device copy the protocol charges its release
		// costs and queues kernel-entry work (LRB's ownership release and
		// first-touch faults).
		var err error
		if now, err = s.proto.BeforeTransfer(&s.env, ph.Addr, ph.Bytes, now); err != nil {
			return now, err
		}
	}

	if s.fabric.Async() {
		// The host blocks only for the driver call that enqueues the
		// copy; the data moves in the background and the GPU consumes it
		// page by page as it arrives (ADSM's lazy transfer), so only sync
		// points wait on the protocol's async-ready horizon.
		launch := s.fabric.Launch()
		res.Communication += launch
		now = now.Add(launch)
		done := s.fabric.Transfer(ph.Bytes, now)
		s.tracer.Span(obs.TrackFabric, "transfer."+ph.Dir.String(), "comm",
			uint64(now), uint64(done), map[string]any{"bytes": ph.Bytes, "async": true})
		s.proto.AfterTransfer(&s.env, done)
		return now, nil
	}
	done := s.fabric.Transfer(ph.Bytes, now)
	s.tracer.Span(obs.TrackFabric, "transfer."+ph.Dir.String(), "comm",
		uint64(now), uint64(done), map[string]any{"bytes": ph.Bytes})
	s.proto.AfterTransfer(&s.env, done)
	res.Communication += done.Sub(now)
	return done, nil
}

func addCPUStats(dst *cpu.Stats, src cpu.Stats) {
	dst.Instructions += src.Instructions
	dst.Branches += src.Branches
	dst.Mispredicts += src.Mispredicts
	dst.MemOps += src.MemOps
	dst.CommOps += src.CommOps
	dst.PushOps += src.PushOps
	dst.CommTime += src.CommTime
	dst.Duration += src.Duration
}

func addGPUStats(dst *gpu.Stats, src gpu.Stats) {
	dst.Instructions += src.Instructions
	dst.Branches += src.Branches
	dst.MemOps += src.MemOps
	dst.LineRequests += src.LineRequests
	dst.SWHits += src.SWHits
	dst.SWMisses += src.SWMisses
	dst.CommOps += src.CommOps
	dst.PushOps += src.PushOps
	dst.CommTime += src.CommTime
	dst.Duration += src.Duration
}
