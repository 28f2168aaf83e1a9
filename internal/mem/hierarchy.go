// Package mem composes the cache, interconnect and DRAM substrates into
// the memory hierarchy of Table II: per-PU first-level caches, the CPU's
// private L2, a shared four-tile L3 reached over the ring bus, and the
// DDR3 memory controllers behind it. The hierarchy times individual
// accesses and explicit push placements, and exposes the GPU's
// software-managed cache.
//
// Access translates (when the translation axis is on), serves L1 hits
// itself, and runs each L1 miss as a memsys.Request through one stage
// chain (private L2, MSHR, ring hops, L3 with coherence, the memory
// technology, commit); this package owns the composition,
// internal/memsys owns the stages.
package mem

import (
	"fmt"
	"math/bits"
	"time"

	"heteromem/internal/arena"
	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/coherence"
	"heteromem/internal/dram"
	"heteromem/internal/memsys"
	"heteromem/internal/memtech"
	"heteromem/internal/noc"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
	"heteromem/internal/xlat"
)

// PU identifies a processing unit attached to the hierarchy. It is
// memsys.PU, so accesses become memsys requests without conversion.
type PU = memsys.PU

const (
	// CPU is the out-of-order general-purpose core.
	CPU = memsys.CPU
	// GPU is the in-order SIMD accelerator core.
	GPU = memsys.GPU
	// NumPUs is the number of processing units.
	NumPUs = memsys.NumPUs
)

// Level identifies a target cache level for explicit (push) placement.
type Level uint8

const (
	// LevelPrivate places data in the PU's first-level data cache.
	LevelPrivate Level = iota
	// LevelShared places data in the shared second-level (L3) cache —
	// the "push(x, S)" of the paper's locality examples (Figure 4).
	LevelShared
	// LevelSoftware places data in the GPU's software-managed cache.
	LevelSoftware
)

func (l Level) String() string {
	switch l {
	case LevelPrivate:
		return "private"
	case LevelShared:
		return "shared"
	case LevelSoftware:
		return "software"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// PushLevel returns the cache level a push instruction's trace level
// (trace.PushPrivate, PushShared, PushSoftware) places data in; unknown
// levels place privately.
func PushLevel(l uint8) Level {
	switch l {
	case trace.PushShared:
		return LevelShared
	case trace.PushSoftware:
		return LevelSoftware
	default:
		return LevelPrivate
	}
}

// Config describes the whole hierarchy. Latencies are absolute durations;
// callers convert from cycle counts in the owning frequency domain.
type Config struct {
	CPUL1D cache.Config
	CPUL2  cache.Config
	GPUL1D cache.Config
	// L3Tile is the configuration of one L3 tile; L3Tiles tiles are
	// instantiated and lines interleave across them.
	L3Tile  cache.Config
	L3Tiles int

	CPUL1DLat clock.Duration
	CPUL2Lat  clock.Duration
	GPUL1DLat clock.Duration
	L3Lat     clock.Duration

	// SWCacheBytes is the GPU software-managed cache capacity.
	SWCacheBytes uint64
	// SWCacheLat is its fixed access latency.
	SWCacheLat clock.Duration

	// MSHRsPerPU bounds outstanding misses per PU (0 = unlimited).
	MSHRsPerPU int

	// Coherence selects hardware coherence across the PUs' private
	// caches. The baseline leaves it off: none of the surveyed systems
	// builds full cross-PU hardware coherence (Table I), and the paper's
	// ideal system treats coherence as free. Enabling the directory
	// measures what that "free" actually costs.
	Coherence CoherenceMode

	Ring noc.Config
	DRAM dram.Config

	// Tech selects the terminal memory technology behind the L3 (the
	// mem_tech design axis). The zero Spec is the DDR3 baseline above;
	// other kinds replace the terminal stage with an HBM, NVM or
	// DRAM-cache backend. The DRAM controller is always built — the
	// memory-controller fabric DMAs through it regardless of Tech.
	Tech memtech.Spec

	// Xlat selects the address-translation front-end (the translation
	// design axis). The zero Spec is the paper's baseline — translation
	// free — and adds nothing to the access path; a non-zero spec puts a
	// per-PU TLB probe and page-walk model in front of every Access. The
	// spec's IOMMU mode must already be resolved (auto behaves as off
	// here; sim resolves it from the system's fabric).
	Xlat xlat.Spec
}

// CoherenceMode selects the cross-PU coherence machinery.
type CoherenceMode uint8

const (
	// CoherenceNone trusts software (flushes at ownership/kernel
	// boundaries) to keep data coherent.
	CoherenceNone CoherenceMode = iota
	// CoherenceDirectory runs a directory-based MSI protocol between the
	// PUs' private hierarchies, priced over the ring.
	CoherenceDirectory
)

func (m CoherenceMode) String() string {
	switch m {
	case CoherenceNone:
		return "none"
	case CoherenceDirectory:
		return "directory"
	default:
		return fmt.Sprintf("coherence(%d)", uint8(m))
	}
}

// Ring stop layout: CPU, GPU, L3 tiles, then the memory controller stop.
func (c Config) cpuStop() int        { return 0 }
func (c Config) gpuStop() int        { return 1 }
func (c Config) l3Stop(tile int) int { return 2 + tile }
func (c Config) mcStop() int         { return 2 + c.L3Tiles }

func (c Config) validate() error {
	if c.L3Tiles <= 0 {
		return fmt.Errorf("mem: L3 tiles %d must be positive", c.L3Tiles)
	}
	if c.Ring.Stops != c.mcStop()+1 {
		return fmt.Errorf("mem: ring has %d stops, hierarchy needs %d", c.Ring.Stops, c.mcStop()+1)
	}
	if err := c.Tech.Validate(); err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	if err := c.Xlat.Validate(); err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	return nil
}

// TableII returns the paper's baseline hierarchy (Table II), with cache
// latencies converted using the 3.5 GHz CPU and 1.5 GHz GPU domains:
// 8-way 32 KB 2-cycle L1s, 8-way 256 KB 8-cycle CPU L2, 32-way 8 MB
// 20-cycle L3 in 4 tiles, 16 KB software-managed GPU cache, ring bus,
// DDR3-1333 with 4 controllers.
func TableII() Config {
	cpuCycle := clock.NewDomain("cpu", 3500).PeriodPS()
	gpuCycle := clock.NewDomain("gpu", 1500).PeriodPS()
	cfg := Config{
		CPUL1D: cache.Config{Name: "cpu.l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		CPUL2:  cache.Config{Name: "cpu.l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		GPUL1D: cache.Config{Name: "gpu.l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L3Tile: cache.Config{
			Name: "l3", SizeBytes: 2 << 20, LineBytes: 64, Ways: 32,
			Policy: cache.LocalityAware,
		},
		L3Tiles:      4,
		CPUL1DLat:    2 * cpuCycle,
		CPUL2Lat:     8 * cpuCycle,
		GPUL1DLat:    2 * gpuCycle,
		L3Lat:        20 * cpuCycle,
		SWCacheBytes: 16 << 10,
		SWCacheLat:   2 * gpuCycle,
		MSHRsPerPU:   16,
		Ring: noc.Config{
			Stops:             7, // cpu, gpu, 4 L3 tiles, mc
			HopLatency:        2 * cpuCycle,
			LinkBytesPerCycle: 32,
			CycleTime:         cpuCycle,
		},
		DRAM: dram.DDR3_1333(),
	}
	return cfg
}

// Stats counts hierarchy-level events per PU.
type Stats struct {
	Accesses   [NumPUs]uint64
	L1Hits     [NumPUs]uint64
	L2Hits     uint64 // CPU only
	L3Hits     [NumPUs]uint64
	DRAMFills  [NumPUs]uint64
	Writebacks uint64
	Pushes     uint64
	PushBytes  uint64
	// CoherenceOps counts accesses that required remote invalidations or
	// forced writebacks under CoherenceDirectory.
	CoherenceOps uint64
	// ScratchOverflows counts software-cache placements that exceeded
	// the scratchpad's capacity and forced a full refresh — a workload
	// placement bug the report should surface, not swallow.
	ScratchOverflows uint64
	// Translation counters (all zero with the axis off): TLB probes,
	// misses, total picoseconds stalled on page walks (including walker
	// queueing on a shared MMU), and shootdowns at ownership handovers.
	XlatLookups    [NumPUs]uint64
	XlatMisses     [NumPUs]uint64
	XlatWalkPS     [NumPUs]uint64
	XlatShootdowns [NumPUs]uint64
}

// Hierarchy is the assembled memory system: the cache/ring/DRAM
// substrates plus the per-PU memsys pipelines that route each access
// through them.
type Hierarchy struct {
	cfg     Config
	cpuL1d  *cache.Cache
	cpuL2   *cache.Cache
	gpuL1d  *cache.Cache
	l3      []*cache.Cache
	ring    *noc.Ring
	dram    *dram.Controller
	mshr    [NumPUs]*cache.MSHR
	scratch *cache.Scratchpad
	dir     *coherence.Directory

	// topo maps PUs and tiles onto ring stops and fixes message sizes;
	// env carries the counters the stages bump.
	topo    memsys.Topology
	env     memsys.Env
	coh     *memsys.CoherenceStage
	l3Stage *memsys.L3Stage
	// backend is the memory technology selected by cfg.Tech: the L3
	// stage's Mem, serving both chains' L3 misses and its victim
	// writebacks.
	backend memsys.Backend
	// xlat is the translation front-end selected by cfg.Xlat; nil when
	// the axis is off. Access charges it before its L1 probe.
	xlat  *memsys.TranslationStage
	chain [NumPUs]memsys.Chain
	// prof, when non-nil, samples the host time of translation into
	// section profXlat (memsys.xlat), as the chains sample their stages.
	prof     *obs.HostProf
	profXlat int
	// req is the reusable transaction: accesses are sequential per
	// hierarchy (one simulator, one goroutine), so a single request
	// keeps the miss path allocation-free.
	req memsys.Request

	// l1/l1Lat are each PU's first level, which Access probes itself,
	// so an L1 hit never enters the stage chain.
	l1    [NumPUs]*cache.Cache
	l1Lat [NumPUs]clock.Duration

	stats Stats // access/push counts; event counts live in env
	// obs carries every count of the hierarchy and its components into
	// the registry when FlushObs runs.
	obs obs.Batch
}

// Instrument binds the hierarchy's counts (mem.*) and its components'
// into the registry: each cache under "mem.<name>", the ring (noc.*), the
// memory controllers (dram.*), the memory technology (memtech.*) and
// translation (xlat.*). A nil registry detaches everything. The counters
// advance when FlushObs runs; the MSHR gauges are set as misses commit.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	h.obs = obs.Batch{}
	b := &h.obs
	for p := PU(0); p < NumPUs; p++ {
		b.Bind(reg, "mem.accesses."+p.String(), &h.stats.Accesses[p])
		b.Bind(reg, "mem.l1.hits."+p.String(), &h.env.L1Hits[p])
		b.Bind(reg, "mem.l3.hits."+p.String(), &h.env.L3Hits[p])
		b.Bind(reg, "mem.dram_fills."+p.String(), &h.env.DRAMFills[p])
		h.env.MSHROut[p] = reg.Gauge("mem.mshr.outstanding." + p.String())
	}
	b.Bind(reg, "mem.l2.hits", &h.env.L2Hits)
	b.Bind(reg, "mem.writebacks", &h.env.Writebacks)
	b.Bind(reg, "mem.coherence.ops", &h.env.CoherenceOps)
	b.Bind(reg, "mem.pushes", &h.stats.Pushes)
	b.Bind(reg, "mem.push_bytes", &h.stats.PushBytes)
	b.Bind(reg, "mem.scratch_overflows", &h.stats.ScratchOverflows)

	h.cpuL1d.Instrument(b, reg, "mem."+h.cfg.CPUL1D.Name)
	h.cpuL2.Instrument(b, reg, "mem."+h.cfg.CPUL2.Name)
	h.gpuL1d.Instrument(b, reg, "mem."+h.cfg.GPUL1D.Name)
	for i, t := range h.l3 {
		t.Instrument(b, reg, fmt.Sprintf("mem.l3.t%d", i))
	}
	h.ring.Instrument(b, reg)
	h.dram.Instrument(b, reg, "dram")
	h.backend.Instrument(b, reg)
	h.xlat.Instrument(b, reg)
}

// InstrumentHost attaches sampled host wall-clock attribution to the
// memory path: one in every p.Every() translations and chain runs is
// timed, stage by stage for a chain run, accumulating into p's memsys.*
// sections (flushed to the registry as host.memsys.*.ns counters by the
// simulator's batched flush). Section registration is idempotent, so
// successive simulators sharing one profiler agree on ids. A nil profiler
// detaches profiling.
func (h *Hierarchy) InstrumentHost(p *obs.HostProf) {
	base := -1
	for i, name := range memsys.ProfSections() {
		id := p.Section(name)
		if i == 0 {
			base = id
		}
	}
	h.prof, h.profXlat = p, base // memsys.xlat is the first section
	for pu := range h.chain {
		h.chain[pu].Prof = p
		h.chain[pu].ProfBase = base
	}
}

// New assembles a hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	return NewIn(nil, cfg)
}

// NewIn is New with the hierarchy's cache metadata arrays, MSHR files,
// ring links and routes, DRAM bank and bus arrays and backend channel
// resources carved from the arena (nil falls back to the heap). The
// hierarchy carves from the arena for its whole life — DRAM-cache
// directory chunks as they are first filled, an uncapped MSHR file's
// registers as it grows — so it must run on the goroutine that owns the
// arena, and the arena may be Reset only once the hierarchy is dropped:
// a sweep worker builds each cell's simulator out of one arena and
// rewinds it when it drops that simulator for the next cell's.
func NewIn(a *arena.Arena, cfg Config) (*Hierarchy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.cpuL1d, err = cache.NewIn(a, cfg.CPUL1D); err != nil {
		return nil, err
	}
	if h.cpuL2, err = cache.NewIn(a, cfg.CPUL2); err != nil {
		return nil, err
	}
	if h.gpuL1d, err = cache.NewIn(a, cfg.GPUL1D); err != nil {
		return nil, err
	}
	h.l3 = make([]*cache.Cache, cfg.L3Tiles)
	// Tiles interleave lines modulo L3Tiles (memsys.Topology.TileFor),
	// which fixes a tile's low TrailingZeros(L3Tiles) line-address bits,
	// so each tile indexes its sets above them.
	tileCfg := cfg.L3Tile
	tileCfg.InterleaveBits = uint(bits.TrailingZeros(uint(cfg.L3Tiles)))
	for i := range h.l3 {
		tileCfg.Name = fmt.Sprintf("l3.t%d", i)
		if h.l3[i], err = cache.NewIn(a, tileCfg); err != nil {
			return nil, err
		}
	}
	if h.ring, err = noc.NewIn(a, cfg.Ring); err != nil {
		return nil, err
	}
	if h.dram, err = dram.NewIn(a, cfg.DRAM); err != nil {
		return nil, err
	}
	for p := PU(0); p < NumPUs; p++ {
		h.mshr[p] = cache.NewMSHRIn(a, cfg.MSHRsPerPU)
	}
	h.scratch = cache.NewScratchpad("gpu.sw", cfg.SWCacheBytes)
	if cfg.Coherence == CoherenceDirectory {
		h.dir, err = coherence.NewDirectory(uint64(cfg.L3Tile.LineBytes), int(NumPUs))
		if err != nil {
			return nil, err
		}
	}
	if err := h.buildPipelines(a); err != nil {
		return nil, err
	}
	return h, nil
}

// buildPipelines composes the per-PU stage chains over the substrates
// New assembled: private L2, MSHR merge, request hop, L3 (with
// coherence, and the memory technology cfg.Tech selects behind it),
// response hop, commit. Stage order is the request path of Table II.
// The backend's metadata is carved from a, like the caches'.
func (h *Hierarchy) buildPipelines(a *arena.Arena) error {
	cfg := h.cfg
	h.topo = memsys.Topology{
		PUStop:    [memsys.NumPUs]int{cfg.cpuStop(), cfg.gpuStop()},
		L3Base:    cfg.l3Stop(0),
		MCStop:    cfg.mcStop(),
		Tiles:     cfg.L3Tiles,
		LineBytes: cfg.L3Tile.LineBytes,
		ReqBytes:  16,
	}.Derive()
	coh := &memsys.CoherenceStage{
		Dir:  h.dir,
		Net:  h.ring,
		Topo: h.topo,
		Caches: [memsys.NumPUs][]*cache.Cache{
			{h.cpuL1d, h.cpuL2},
			{h.gpuL1d},
		},
		Env: &h.env,
	}
	h.coh = coh
	private := [NumPUs]*memsys.PrivateStage{
		CPU: {PU: memsys.CPU, L1: h.cpuL1d, L2: h.cpuL2, L2Lat: cfg.CPUL2Lat, Coherence: coh, Env: &h.env},
		GPU: {PU: memsys.GPU, L1: h.gpuL1d, Coherence: coh, Env: &h.env},
	}
	if err := h.buildBackend(a); err != nil {
		return err
	}
	h.l3Stage = &memsys.L3Stage{
		Tiles: h.l3, Lat: cfg.L3Lat, Mem: h.backend,
		Net: h.ring, Topo: h.topo, Coherence: coh, Env: &h.env,
	}
	x, err := memsys.NewTranslationStage(cfg.Xlat)
	if err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	h.xlat = x
	for p := PU(0); p < NumPUs; p++ {
		h.chain[p] = memsys.Chain{
			Private: private[p],
			MSHR:    &memsys.MSHRStage{File: h.mshr[p]},
			ReqHop:  &memsys.RingHopStage{Net: h.ring, Topo: h.topo},
			L3:      h.l3Stage,
			RespHop: &memsys.RingHopStage{Resp: true, Net: h.ring, Topo: h.topo},
			Commit:  &memsys.CommitStage{Private: private[p], File: h.mshr[p], Env: &h.env},
		}
	}

	// Each PU's first level, which Access probes before entering the chain.
	h.l1[CPU], h.l1Lat[CPU] = h.cpuL1d, cfg.CPUL1DLat
	h.l1[GPU], h.l1Lat[GPU] = h.gpuL1d, cfg.GPUL1DLat
	return nil
}

// buildBackend constructs the memory technology cfg.Tech selects,
// carving the DRAM cache's tag directory from a.
func (h *Hierarchy) buildBackend(a *arena.Arena) error {
	cfg := h.cfg
	switch cfg.Tech.Kind {
	case memtech.DRAM:
		h.backend = &memsys.DRAMStage{Ctrl: h.dram}
	case memtech.HBM:
		p := cfg.Tech.ResolvedHBM()
		ctrl, err := dram.NewIn(a, p.DRAMConfig(cfg.L3Tile.LineBytes))
		if err != nil {
			return fmt.Errorf("mem: mem_tech.hbm: %w", err)
		}
		h.backend = &memsys.HBMStage{Ctrl: ctrl, ExtraLat: p.ExtraLat()}
	case memtech.NVM:
		p := cfg.Tech.ResolvedNVM()
		h.backend = &memsys.NVMStage{
			Chans:      arena.Make[clock.Resource](a, p.Channels),
			ReadLat:    clock.Duration(p.ReadPS),
			WriteLat:   clock.Duration(p.WritePS),
			Bus:        clock.Duration(p.BusPS),
			QueueDepth: p.WriteQueueDepth,
			LineBytes:  cfg.L3Tile.LineBytes,
		}
	case memtech.DRAMCache:
		p := cfg.Tech.ResolvedDRAMCache()
		dir, err := cache.NewIn(a, cache.Config{
			Name:      "dram_cache",
			SizeBytes: int(p.SizeBytes),
			LineBytes: cfg.L3Tile.LineBytes,
			Ways:      p.Ways,
		})
		if err != nil {
			return fmt.Errorf("mem: mem_tech.dram_cache: %w", err)
		}
		h.backend = &memsys.DRAMCacheStage{
			Dir:       dir,
			NearChans: arena.Make[clock.Resource](a, p.NearChannels),
			FarChans:  arena.Make[clock.Resource](a, p.FarChannels),
			NearLat:   clock.Duration(p.NearPS), NearBus: clock.Duration(p.NearBusPS),
			FarRead: clock.Duration(p.FarReadPS), FarWrite: clock.Duration(p.FarWritePS),
			FarBus: clock.Duration(p.FarBusPS), LineBytes: cfg.L3Tile.LineBytes,
		}
	default:
		return fmt.Errorf("mem: mem_tech.kind: invalid memory technology %d", uint8(cfg.Tech.Kind))
	}
	return nil
}

// MustNew is New but panics on configuration error.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the hierarchy counters.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.L1Hits = h.env.L1Hits
	s.L2Hits = h.env.L2Hits
	s.L3Hits = h.env.L3Hits
	s.DRAMFills = h.env.DRAMFills
	s.Writebacks = h.env.Writebacks
	s.CoherenceOps = h.env.CoherenceOps
	x := h.xlat.Stats()
	s.XlatLookups = x.Lookups
	s.XlatMisses = x.Misses
	s.XlatWalkPS = x.WalkPS
	s.XlatShootdowns = x.Shootdowns
	return s
}

// FlushObs carries the counts accumulated since the last flush into the
// registry. The simulator calls it before every interval sample and at
// run end, so an event on the hot path costs a plain integer increment.
func (h *Hierarchy) FlushObs() { h.obs.Flush() }

// Scratchpad returns the GPU's software-managed cache.
func (h *Hierarchy) Scratchpad() *cache.Scratchpad { return h.scratch }

// DRAM returns the memory controller, for direct DMA-style transfers.
func (h *Hierarchy) DRAM() *dram.Controller { return h.dram }

// Backend returns the memory technology serving L3 misses.
func (h *Hierarchy) Backend() memsys.Backend { return h.backend }

// TechKind returns the configured memory technology.
func (h *Hierarchy) TechKind() memtech.Kind { return h.cfg.Tech.Kind }

// Translation returns the address-translation front-end, or nil when
// the axis is off.
func (h *Hierarchy) Translation() *memsys.TranslationStage { return h.xlat }

// Ring returns the interconnect, for reporting.
func (h *Hierarchy) Ring() *noc.Ring { return h.ring }

// Directory returns the coherence directory, or nil when coherence is
// off.
func (h *Hierarchy) Directory() *coherence.Directory { return h.dir }

// Access times a single load or store by pu to addr, starting at now, and
// returns its completion time. Write-allocate, write-back at every level.
//
// An access that hits the PU's first-level cache is served here, with
// one Lookup and without constructing a request; only a first-level
// miss enters the stage chain.
func (h *Hierarchy) Access(pu PU, addr uint64, write bool, now clock.Time) clock.Time {
	if pu >= NumPUs {
		panic(fmt.Sprintf("mem: access from unknown PU %d", pu))
	}
	h.stats.Accesses[pu]++
	if h.xlat != nil {
		// Translation runs before any cache can be indexed by the
		// physical address: a TLB hit is free (probe overlaps the L1 tag
		// check), a miss stalls the access for the page walk.
		now = h.translate(pu, addr, now)
	}
	line := h.topo.Line(addr)
	if h.l1[pu].Lookup(addr, write) {
		h.env.L1Hits[pu]++
		end := now.Add(h.l1Lat[pu])
		if write {
			end = h.coh.Apply(pu, addr, line, write, end)
		}
		return end
	}
	h.req.Start(pu, addr, line, write, now.Add(h.l1Lat[pu]))
	return h.chain[pu].Run(&h.req)
}

// translate charges addr's translation for pu, timing it into
// memsys.xlat when the host profiler samples it.
func (h *Hierarchy) translate(pu PU, addr uint64, now clock.Time) clock.Time {
	if !h.prof.Sample() {
		return h.xlat.Translate(pu, addr, now)
	}
	t := time.Now()
	now = h.xlat.Translate(pu, addr, now)
	h.prof.Add(h.profXlat, time.Since(t))
	return now
}

// Push explicitly places the size-byte object at addr into the target
// level for pu, line by line, and returns the completion time. This is
// the hardware side of the paper's push(x, level) locality-control
// statement: data moves into the designated cache with its locality bit
// set so implicit traffic cannot evict it (Section II-B5).
func (h *Hierarchy) Push(pu PU, addr uint64, size uint32, level Level, now clock.Time) clock.Time {
	h.stats.Pushes++
	h.stats.PushBytes += uint64(size)
	if size == 0 {
		return now
	}
	// Walk a line count, not an address bound: a range ending at the top
	// of the address space would wrap the bound to zero.
	lineBytes := uint64(h.topo.LineBytes)
	first := h.topo.Line(addr)
	lines := (addr - first + uint64(size) + lineBytes - 1) / lineBytes
	switch level {
	case LevelSoftware:
		// Software-managed cache: one DMA-style burst from the shared
		// hierarchy into the scratchpad.
		if err := h.scratch.Place(addr, uint64(size)); err != nil {
			// Capacity exceeded is a program (trace) error; count it so
			// reports surface the placement bug, then treat it as a
			// refresh of the whole scratchpad.
			h.stats.ScratchOverflows++
			h.scratch.Clear()
			_ = h.scratch.Place(addr, uint64(size))
		}
		t := now
		for n, line := uint64(0), first; n < lines; n, line = n+1, line+lineBytes {
			t = h.Access(GPU, line, false, t)
		}
		return t
	case LevelShared:
		// Move each line into its L3 tile over the ring, marked explicit.
		t := now
		src := h.topo.PUStop[pu]
		for n, line := uint64(0), first; n < lines; n, line = n+1, line+lineBytes {
			tile := h.topo.TileFor(line)
			at := h.ring.Send(src, h.topo.TileStop(tile), h.topo.LineBytes+h.topo.ReqBytes, t)
			at = at.Add(h.cfg.L3Lat)
			h.l3Stage.Fill(tile, line, true, true, at)
			t = at
		}
		return t
	case LevelPrivate:
		// Prefetch into the PU's first-level cache through the normal path.
		t := now
		for n, line := uint64(0), first; n < lines; n, line = n+1, line+lineBytes {
			t = h.Access(pu, line, false, t)
		}
		return t
	default:
		panic(fmt.Sprintf("mem: push to unknown level %d", level))
	}
}

// FlushPrivate writes back and invalidates pu's private caches (used at
// ownership-transfer points) and returns the number of dirty lines
// written back.
func (h *Hierarchy) FlushPrivate(pu PU) int {
	// An ownership transfer remaps pages between the PUs' views, so the
	// handover that flushes the caches also shoots down the TLB (nil-safe
	// when the translation axis is off).
	h.xlat.Flush(pu)
	if pu == CPU {
		return h.cpuL1d.FlushAll() + h.cpuL2.FlushAll()
	}
	h.scratch.Clear()
	return h.gpuL1d.FlushAll()
}

// CacheStats returns per-cache statistics keyed by cache name.
func (h *Hierarchy) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{
		h.cfg.CPUL1D.Name: h.cpuL1d.Stats(),
		h.cfg.CPUL2.Name:  h.cpuL2.Stats(),
		h.cfg.GPUL1D.Name: h.gpuL1d.Stats(),
	}
	for i, t := range h.l3 {
		out[fmt.Sprintf("l3.t%d", i)] = t.Stats()
	}
	return out
}
