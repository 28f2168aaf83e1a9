// Command hetsweep regenerates the paper's tables and figures.
//
// Usage:
//
//	hetsweep -table 1          # Table I survey
//	hetsweep -figure 5         # Figure 5 case studies (full kernels)
//	hetsweep -figure 5 -quick  # small kernels only
//	hetsweep -all              # everything
//	hetsweep -grid g.json      # sweep a declarative design-space grid
//	hetsweep -figure 5 -memtech hbm   # case studies on an HBM backend
//	hetsweep -figure 5 -xlat 2m       # … with address translation priced
//
// A sweep can be observed: -out writes a run-artifact directory
// (manifest.json, run ledger, aggregate metrics, per-cell interval CSVs,
// Perfetto worker trace).
//
// A sweep can be memoized across runs: -cache <dir> keeps a persistent
// content-addressed result cache — any cell simulated by this or any
// earlier run is served from the cache without touching a simulator,
// and -cache-verify re-simulates a sampled fraction of hits to prove
// the cache exact (see DESIGN.md §15).
//
//	hetsweep -grid g.json -cache .hetcache            # cold: fills
//	hetsweep -grid g.json -cache .hetcache            # warm: all hits
//	hetsweep -grid g.json -cache .hetcache -cache-verify 0.1
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"heteromem/internal/guideline"
	"heteromem/internal/harness"
	"heteromem/internal/memtech"
	"heteromem/internal/prof"
	"heteromem/internal/report"
	"heteromem/internal/rescache"
	"heteromem/internal/systems"
	"heteromem/internal/xlat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetsweep: ")
	var (
		table       = flag.Int("table", 0, "regenerate table N (1-5)")
		figure      = flag.Int("figure", 0, "regenerate figure N (5-7)")
		all         = flag.Bool("all", false, "regenerate every table and figure")
		quick       = flag.Bool("quick", false, "use the small kernels only (faster)")
		kernelsFlag = flag.String("kernels", "", "comma-separated kernel list, overriding -quick and the grid's kernels")
		sensitivity = flag.String("sensitivity", "", "transfer-volume sensitivity sweep for the named kernel")
		guide       = flag.Bool("guideline", false, "score the address-space models and recommend one (Section VII future work)")
		gridPath    = flag.String("grid", "", "sweep the design-space grid described by this JSON file (see examples/systems/grid.json)")
		csvPath     = flag.String("csv", "", "also write the case-study sweep as CSV to this file")
		energyOut   = flag.Bool("energy", false, "print the energy breakdown for the case-study sweep")
		jsonOut     = flag.Bool("json", false, "emit the case-study sweep (full results) as JSON to stdout")
		memtechName = flag.String("memtech", "dram", "terminal memory technology for the case-study sweep (dram, hbm, nvm, dram-cache)")
		xlatName    = flag.String("xlat", "off", "address-translation preset for the case-study sweep ("+strings.Join(xlat.Presets(), ", ")+")")
		par         = flag.Int("par", 0, "sweep worker count (0 = GOMAXPROCS)")

		cacheDir    = flag.String("cache", "", "content-addressed result cache directory: probe every cell before simulating, serve hits without a simulator, fill misses (see DESIGN.md §15)")
		cacheVerify = flag.Float64("cache-verify", 0, "re-simulate this fraction of cache hits (deterministically sampled) and fail loudly on any mismatch — the determinism tripwire; 0 disables")

		outDir         = flag.String("out", "", "write the run-artifact directory (manifest.json, ledger.jsonl, metrics.json, trace.json, results.csv, intervals/)")
		intervalCycles = flag.Uint64("interval-cycles", 100_000, "per-cell interval-CSV epoch length in CPU cycles under -out (0 = no interval CSVs)")
		hostprofEvery  = flag.Int("hostprof", 32, "host-time self-profiling: time one in every N memory-pipeline runs when observed (0 = off)")
	)
	flag.Parse()
	defer prof.Start()()

	intervalPS, err := harness.CheckFlags(*intervalCycles, *hostprofEvery, *cacheVerify)
	if err != nil {
		log.Fatal(err)
	}
	var cache *rescache.Store
	if *cacheDir != "" {
		var err error
		if cache, err = rescache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		defer func() {
			st := cache.Stats()
			log.Printf("cache %s: %d hits, %d misses (%.1f%% hit rate), %d B read, %d B written",
				*cacheDir, st.Hits, st.Misses, 100*st.HitRate(), st.BytesRead, st.BytesWritten)
			if err := cache.Err(); err != nil {
				log.Printf("warning: some results were not stored in the cache: %v", err)
			}
			if err := cache.Close(); err != nil {
				log.Printf("warning: closing the cache: %v", err)
			}
		}()
	} else if *cacheVerify > 0 {
		log.Fatal("-cache-verify needs -cache")
	}

	obsRun, err := setupObservability(observeConfig{
		OutDir: *outDir, IntervalPS: intervalPS, HostProfEvery: *hostprofEvery,
		Par: *par, Cache: cache,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer obsRun.close()
	exec := harness.Executor{Par: *par, Obs: obsRun.observer(), Cache: cache, CacheVerify: *cacheVerify}

	kernels := harness.DefaultKernels()
	if *quick {
		kernels = harness.QuickKernels()
	}
	if *kernelsFlag != "" {
		if kernels, err = splitKernels(*kernelsFlag); err != nil {
			log.Fatal(err)
		}
	}

	if *sensitivity != "" {
		points, err := harness.RunTransferSensitivity(*sensitivity, []float64{0.25, 0.5, 1, 2, 4, 8, 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(harness.RenderSensitivity(*sensitivity, points))
		return
	}
	if *guide {
		printGuideline(kernels)
		return
	}
	if *gridPath != "" {
		var override []string
		if *kernelsFlag != "" {
			override = kernels
		}
		runGrid(exec, obsRun, *gridPath, override, *csvPath, *jsonOut)
		return
	}
	if !*all && *table == 0 && *figure == 0 && !*energyOut && *csvPath == "" && !*jsonOut {
		flag.Usage()
		return
	}

	tables := map[int]func() string{
		1: harness.RenderTable1,
		2: harness.RenderTable2,
		3: harness.RenderTable3,
		4: harness.RenderTable4,
		5: harness.RenderTable5,
	}

	emitTable := func(n int) {
		f, ok := tables[n]
		if !ok {
			log.Fatalf("no table %d (have 1-5)", n)
		}
		fmt.Println(f())
	}

	tech, err := memtech.Parse(*memtechName)
	if err != nil {
		log.Fatal(err)
	}
	xspec, err := xlat.ParsePreset(*xlatName)
	if err != nil {
		log.Fatal(err)
	}
	var caseCells []harness.Cell
	caseStudies := func() []harness.Cell {
		if caseCells == nil {
			sysList := systems.CaseStudiesWithTech(tech)
			if !xspec.IsZero() {
				for i := range sysList {
					sysList[i].Translation = xspec
				}
			}
			var err error
			caseCells, err = exec.RunSystems(sysList, kernels)
			if err != nil {
				log.Fatal(err)
			}
			obsRun.setSweep(sweepInfo{
				systems: sysList, kernels: kernels, cells: caseCells,
			})
		}
		return caseCells
	}

	emitFigure := func(n int) {
		switch n {
		case 5:
			fmt.Println(harness.RenderFigure5(caseStudies()))
		case 6:
			fmt.Println(harness.RenderFigure6(caseStudies()))
		case 7:
			sysList := systems.AddressSpaces()
			cells, err := exec.RunSystems(sysList, kernels)
			if err != nil {
				log.Fatal(err)
			}
			obsRun.setSweep(sweepInfo{systems: sysList, kernels: kernels, cells: cells})
			fmt.Println(harness.RenderFigure7(cells))
		default:
			log.Fatalf("no figure %d (have 5-7)", n)
		}
	}

	if *all {
		for n := 1; n <= 5; n++ {
			emitTable(n)
		}
		for n := 5; n <= 7; n++ {
			emitFigure(n)
		}
		fmt.Println(harness.RenderLocalityOptions())
		fmt.Println(harness.RenderEnergy(caseStudies()))
		printGuideline(kernels)
		if *csvPath != "" {
			writeCSV(*csvPath, caseStudies())
		}
		if *jsonOut {
			writeJSON(caseStudies())
		}
		return
	}
	if *table != 0 {
		emitTable(*table)
	}
	if *figure != 0 {
		emitFigure(*figure)
	}
	if *energyOut {
		fmt.Println(harness.RenderEnergy(caseStudies()))
	}
	if *csvPath != "" {
		writeCSV(*csvPath, caseStudies())
	}
	if *jsonOut {
		writeJSON(caseStudies())
	}
}

// runGrid sweeps every coherent point of a declarative design-space grid
// (systems.LoadGridFile) and prints the Figure 5 breakdown per point.
// kernelsOverride, when non-nil, replaces the grid's own kernel list.
func runGrid(exec harness.Executor, obsRun *observedRun, path string, kernelsOverride []string, csvPath string, jsonOut bool) {
	gridBytes, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := systems.LoadGridFile(path)
	if err != nil {
		log.Fatal(err)
	}
	points, skipped := grid.Enumerate()
	if len(points) == 0 {
		log.Fatalf("%s: grid spans no coherent design points (%d skipped)", path, skipped)
	}
	kernels := grid.Kernels
	if len(kernels) == 0 {
		kernels = []string{"reduction"}
	}
	if kernelsOverride != nil {
		kernels = kernelsOverride
	}
	cells, err := exec.RunSystems(points, kernels)
	if err != nil {
		log.Fatal(err)
	}
	obsRun.setSweep(sweepInfo{
		systems: points, kernels: kernels, cells: cells,
		gridPath: path, gridSHA: fmt.Sprintf("sha256:%x", sha256.Sum256(gridBytes)),
		gridName: grid.Name,
	})
	title := grid.Name
	if title == "" {
		title = path
	}
	fmt.Printf("grid %s: %d design points (%d incoherent combinations skipped)\n\n",
		title, len(points), skipped)
	for _, kernel := range kernels {
		tbl := report.Table{
			Title:   kernel,
			Headers: []string{"design point", "sequential", "parallel", "communication", "total", "comm share"},
		}
		for _, c := range cells {
			if c.Kernel != kernel {
				continue
			}
			res := c.Result
			tbl.AddRow(c.System,
				report.Dur(res.Sequential), report.Dur(res.Parallel),
				report.Dur(res.Communication), report.Dur(res.Total()),
				report.Pct(res.CommFraction()))
		}
		fmt.Println(tbl.String())
	}
	if csvPath != "" {
		writeCSV(csvPath, cells)
	}
	if jsonOut {
		writeJSON(cells)
	}
}

// splitKernels parses the -kernels flag: comma-separated names, blanks
// dropped. A flag naming no kernel, or one kernel twice, is an error.
func splitKernels(s string) ([]string, error) {
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k == "" {
			continue
		}
		if slices.Contains(out, k) {
			return nil, fmt.Errorf("-kernels %q names kernel %q twice", s, k)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-kernels %q names no kernels", s)
	}
	return out, nil
}

func writeJSON(cells []harness.Cell) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cells); err != nil {
		log.Fatal(err)
	}
}

func writeCSV(path string, cells []harness.Cell) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.WriteCSV(f, cells); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d rows to %s\n", len(cells), path)
}

func printGuideline(kernels []string) {
	scores, err := guideline.Evaluate(kernels, guideline.DefaultWeights())
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.Table{
		Title: "Design-option efficiency (Section VII future work; equal weights)",
		Headers: []string{"model", "perf overhead vs ideal", "comm source lines",
			"locality options", "coherence cost", "composite"},
	}
	for _, s := range scores {
		tbl.AddRow(s.Model, report.Pct(s.PerfOverhead), s.CommLines,
			s.LocalityOptions, s.HardwareCost, report.F3(s.Composite))
	}
	fmt.Println(tbl.String())
	best, why, err := guideline.Recommend(scores)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recommendation: %v (%s)\n", best, why)
}
