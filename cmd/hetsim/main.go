// Command hetsim runs one kernel on one heterogeneous system
// configuration and prints the execution-time breakdown and memory-system
// statistics.
//
// Usage:
//
//	hetsim -system LRB -kernel reduction
//	hetsim -all -kernel merge-sort
//	hetsim -all -kernel fft -cache .hetcache   # reuse/fill the result cache
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"heteromem/internal/clock"
	"heteromem/internal/energy"
	"heteromem/internal/harness"
	"heteromem/internal/locality"
	"heteromem/internal/obs"
	"heteromem/internal/prof"
	"heteromem/internal/report"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetsim: ")
	var (
		system   = flag.String("system", "CPU+GPU", "system configuration: a built-in name (CPU+GPU, LRB, GMAC, Fusion, IDEAL-HETERO, grace-hopper) or a path to a declarative JSON file (see examples/systems)")
		kernel   = flag.String("kernel", "reduction", "kernel: "+strings.Join(workload.Names(), ", "))
		program  = flag.String("program", "", "run a saved program file (from hettrace -saveprog) instead of a named kernel")
		all      = flag.Bool("all", false, "run every system on the kernel")
		verbose  = flag.Bool("v", false, "print per-component statistics")
		loc      = flag.String("locality", "", "apply a locality scheme: expl-shared, expl-private, or hybrid")
		energyOn = flag.Bool("energy", false, "print the estimated energy breakdown")
		xlatName = flag.String("xlat", "", "override the system's address-translation front-end with a preset ("+strings.Join(xlat.Presets(), ", ")+")")
		cacheDir = flag.String("cache", "", "persistent result-cache directory shared with hetsweep: serve previously simulated points from the cache and store new results into it")

		jsonOut        = flag.Bool("json", false, "emit the full results as JSON to stdout instead of tables")
		traceOut       = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file (single system only)")
		intervalOut    = flag.String("interval-stats", "", "write the per-epoch interval statistics CSV (single system only)")
		intervalCycles = flag.Uint64("interval-cycles", 100_000, "sampling epoch length in CPU cycles for -interval-stats")
		metricsOut     = flag.String("metrics-json", "", "write the final metrics registry as JSON; \"-\" for stdout (single system only)")
		hostprofEvery  = flag.Int("hostprof", 0, "host-time self-profiling: time one in every N memory-pipeline runs, reported as host.* metrics (0 = off)")
	)
	flag.Parse()
	defer prof.Start()()

	intervalPS, err := harness.CheckFlags(*intervalCycles, *hostprofEvery, 0)
	if err != nil {
		log.Fatal(err)
	}
	observing := *traceOut != "" || *intervalOut != "" || *metricsOut != "" || *hostprofEvery > 0
	if (*traceOut != "" || *intervalOut != "" || *metricsOut != "") && *all {
		log.Fatal("-trace, -interval-stats and -metrics-json apply to a single system; drop -all")
	}

	var cache *rescache.Store
	if *cacheDir != "" {
		var err error
		if cache, err = rescache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		if observing {
			// Instrumented runs exist for their side channels (traces,
			// interval CSVs, metrics), which a cache hit would leave
			// empty — simulate everything, but still fill the cache.
			log.Print("observability sinks requested: cache hits disabled for this run; results are still stored")
		}
	}

	opts := sim.Options{}
	if *loc != "" {
		scheme, err := schemeByName(*loc)
		if err != nil {
			log.Fatal(err)
		}
		opts.Locality = &scheme
	}

	var p *workload.Program
	if *program != "" {
		f, err := os.Open(*program)
		if err != nil {
			log.Fatal(err)
		}
		p, err = workload.LoadProgram(f)
		closeErr := f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if closeErr != nil {
			log.Fatal(closeErr)
		}
	} else {
		p, err = workload.Open(*kernel)
		if err != nil {
			log.Fatal(err)
		}
	}

	var sysList []systems.System
	if *all {
		sysList = systems.CaseStudies()
	} else {
		s, err := findSystem(*system)
		if err != nil {
			log.Fatal(err)
		}
		sysList = []systems.System{s}
	}
	if *xlatName != "" {
		xspec, err := xlat.ParsePreset(*xlatName)
		if err != nil {
			log.Fatal(err)
		}
		for i := range sysList {
			sysList[i].Translation = xspec
		}
	}

	var reg *obs.Registry
	var sampler *obs.Sampler
	var tracer *obs.Tracer
	if observing {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		if *intervalOut != "" {
			if intervalPS == 0 {
				log.Fatal("-interval-cycles must be positive")
			}
			sampler = obs.NewSampler(reg, intervalPS)
			opts.Sampler = sampler
		}
		if *traceOut != "" {
			tracer = obs.NewTracer()
			opts.Tracer = tracer
		}
		if *hostprofEvery > 0 {
			opts.HostProf = obs.NewHostProf(*hostprofEvery)
		}
	}

	tbl := report.Table{
		Title:   fmt.Sprintf("%s (%s pattern, %d instructions)", p.Name, p.Pattern, p.TotalInstructions()),
		Headers: []string{"system", "sequential", "parallel", "communication", "total", "comm share"},
	}
	var results []sim.Result
	for _, sys := range sysList {
		var key rescache.Key
		if cache != nil {
			key = harness.PointKey(sys, p, opts)
		}
		var res sim.Result
		if hit, ok := lookup(cache, key, observing); ok {
			// The spec hash is name-invariant; restamp the cached result
			// with this run's labels.
			hit.System, hit.Kernel = sys.Name, p.Name
			res = hit
		} else {
			s, err := sim.NewWithOptions(sys, opts)
			if err != nil {
				log.Fatal(err)
			}
			if res, err = s.Run(p); err != nil {
				log.Fatal(err)
			}
			if err := cache.Put(key, res); err != nil {
				log.Printf("warning: %v", err)
			}
		}
		results = append(results, res)
		tbl.AddRow(sys.Name,
			report.Dur(res.Sequential), report.Dur(res.Parallel),
			report.Dur(res.Communication), report.Dur(res.Total()),
			report.Pct(res.CommFraction()))
	}
	if cache != nil {
		st := cache.Stats()
		log.Printf("cache %s: %d hits, %d misses", cache.Dir(), st.Hits, st.Misses)
		if err := cache.Err(); err != nil {
			log.Printf("warning: some results were not stored in the cache: %v", err)
		}
		if err := cache.Close(); err != nil {
			log.Printf("warning: closing the cache: %v", err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(tbl.String())
	}
	writeObservability(*traceOut, tracer, *intervalOut, sampler, *metricsOut, reg)

	if *verbose && !*jsonOut {
		for _, res := range results {
			printDetail(res)
		}
	}
	if *energyOn && !*jsonOut {
		etbl := report.Table{
			Title:   "estimated energy (nJ)",
			Headers: []string{"system", "cores", "caches", "dram", "noc", "comm", "total"},
		}
		for _, res := range results {
			e := energy.EstimateDefault(res)
			etbl.AddRow(res.System,
				fmt.Sprintf("%.0f", e.Cores), fmt.Sprintf("%.0f", e.Caches),
				fmt.Sprintf("%.0f", e.DRAM), fmt.Sprintf("%.0f", e.Interconnect),
				fmt.Sprintf("%.0f", e.Communication), fmt.Sprintf("%.0f", e.Total()))
		}
		fmt.Println()
		fmt.Print(etbl.String())
	}
	_ = os.Stdout.Sync()
}

// lookup probes the result cache unless caching is off or the run is
// instrumented (a hit would skip the simulation the sinks exist to
// observe).
func lookup(cache *rescache.Store, key rescache.Key, observing bool) (sim.Result, bool) {
	if cache == nil || observing {
		return sim.Result{}, false
	}
	return cache.Get(key)
}

// writeObservability flushes the attached sinks to their output files.
func writeObservability(tracePath string, tracer *obs.Tracer, intervalPath string, sampler *obs.Sampler, metricsPath string, reg *obs.Registry) {
	writeTo := func(path string, write func(*os.File) error) {
		f := os.Stdout
		if path != "-" {
			var err error
			if f, err = os.Create(path); err != nil {
				log.Fatal(err)
			}
		}
		err := write(f)
		if path != "-" {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if tracePath != "" {
		writeTo(tracePath, func(f *os.File) error { return tracer.WriteJSON(f) })
	}
	if intervalPath != "" {
		writeTo(intervalPath, func(f *os.File) error { return sampler.WriteCSV(f) })
	}
	if metricsPath != "" {
		writeTo(metricsPath, func(f *os.File) error { return reg.WriteJSON(f) })
	}
}

func schemeByName(name string) (locality.Scheme, error) {
	switch name {
	case "expl-shared":
		return locality.ImplPrivExplShared, nil
	case "expl-private":
		return locality.ExplPrivImplShared, nil
	case "hybrid":
		return locality.HybridShared, nil
	}
	return locality.Scheme{}, fmt.Errorf("unknown locality scheme %q (expl-shared, expl-private, hybrid)", name)
}

// findSystem resolves -system: a built-in name, or a path to a
// declarative JSON description (systems.Load).
func findSystem(name string) (systems.System, error) {
	builtins := append(systems.CaseStudies(), systems.GraceHopper())
	for _, s := range builtins {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	if st, err := os.Stat(name); err == nil && !st.IsDir() {
		return systems.LoadFile(name)
	}
	var names []string
	for _, s := range builtins {
		names = append(names, s.Name)
	}
	return systems.System{}, fmt.Errorf("unknown system %q (have %s, or a JSON file path)", name, strings.Join(names, ", "))
}

func printDetail(res sim.Result) {
	tbl := report.Table{
		Title:   fmt.Sprintf("%s details", res.System),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("cpu instructions", res.CPU.Instructions)
	tbl.AddRow("cpu mispredicts", res.CPU.Mispredicts)
	tbl.AddRow("gpu instructions", res.GPU.Instructions)
	tbl.AddRow("gpu line requests", res.GPU.LineRequests)
	tbl.AddRow("page faults (lib-pf)", res.PageFaults)
	tbl.AddRow("ownership ops", res.OwnershipOps)
	tbl.AddRow("fabric", res.Fabric.String())
	tbl.AddRow("memory technology", res.MemTech)
	tbl.AddRow("translation", res.Translation)
	if res.Translation != "off" {
		tbl.AddRow("tlb misses cpu/gpu", fmt.Sprintf("%d/%d (of %d/%d)",
			res.Mem.XlatMisses[0], res.Mem.XlatMisses[1],
			res.Mem.XlatLookups[0], res.Mem.XlatLookups[1]))
		tbl.AddRow("page-walk stall cpu/gpu", fmt.Sprintf("%v/%v",
			report.Dur(clock.Duration(res.Mem.XlatWalkPS[0])),
			report.Dur(clock.Duration(res.Mem.XlatWalkPS[1]))))
		tbl.AddRow("tlb shootdowns cpu/gpu", fmt.Sprintf("%d/%d",
			res.Mem.XlatShootdowns[0], res.Mem.XlatShootdowns[1]))
	}
	tbl.AddRow("dram fills cpu/gpu", fmt.Sprintf("%d/%d", res.Mem.DRAMFills[0], res.Mem.DRAMFills[1]))
	tbl.AddRow("L3 hits cpu/gpu", fmt.Sprintf("%d/%d", res.Mem.L3Hits[0], res.Mem.L3Hits[1]))
	tbl.AddRow("page-table map updates", fmt.Sprintf("cpu %d, gpu %d", res.Space.MapUpdates[0], res.Space.MapUpdates[1]))
	fmt.Println()
	fmt.Print(tbl.String())
}
