package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd names every end-to-end metric with its unit, in report order.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"sweep_s", "s"},
	{"sim_mips", "Minst/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB/pass"},
	{"max_rss_mb", "MB"},
}

const (
	// Set-up is timed in at least minSetups samples, and more while the
	// samples so far took under setupBudget; setup_s is their median,
	// scaled to the reference host speed (see hostClock). After
	// the first, a sample of a short set-up is a batch of as many set-ups
	// as fill setupSample, timed together: one set-up of a few
	// microseconds falls inside or outside a collector cycle by luck, and
	// a batch averages over the cycles. Five, not three: dse-warm's
	// set-up fills a store for about 2 s, and of three such samples one
	// taken in a slow phase of the host widened their IQR past the bound.
	minSetups   = 5
	setupBudget = time.Second / 2
	setupSample = 50 * time.Millisecond
	// minPasses timed passes run even when they outlast -seconds.
	minPasses = 3
	// tracedPasses is the number of traced passes of a -trace 1 run.
	tracedPasses = 3
	// gogc is the garbage-collector target every run pins.
	gogc = 100
)

// options are the flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	out      string
}

// env records where a run was measured.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit,omitempty"`
}

func currentEnv() env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// runResult is everything one workload run measured. The untraced
// metrics are summaries over set-ups or passes; a traced run adds the
// per-layer values.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Short      bool               `json:"short,omitempty"`
	Env        env                `json:"env"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Digest     string             `json:"result_digest"`
	Setups     int                `json:"setups"`
	Passes     int                `json:"timed_passes"`
	Problems   []string           `json:"problems,omitempty"`
	Metrics    map[string]summary `json:"metrics"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Tails      map[string]tail    `json:"tails,omitempty"`
}

// passSample is what one timed pass measured.
type passSample struct {
	wall         time.Duration
	allocMB      float64
	instructions uint64
	rssMB        float64
}

// runWorkload sets the workload up several times, runs one untimed
// warm-up pass, then timed passes for o.seconds (half of it when
// tracing, followed by the traced and observed passes), checking the
// output of every pass. An error means nothing could be measured.
func runWorkload(o options) (*runResult, error) {
	def, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(min(def.par, runtime.NumCPU()))
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.out, def.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(dir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	sc := scaleFor(o.short)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var st *state
	var batches []int // set-ups per sample
	var spent time.Duration
	batch, done := 1, 0
	setupClock := newHostClock(def.par)
	for len(batches) < minSetups || spent < setupBudget {
		if err := os.RemoveAll(work); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < batch; i++ {
			// Short set-ups repeat by the thousand; spans of the first few
			// suffice for the per-layer numbers.
			str := tr
			if done >= minSetups {
				str = nil
			}
			if st, err = setup(def, o.seed, sc, work, str); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", def.name, err)
			}
			done++
		}
		took := time.Since(start)
		spent += took
		setupClock.add(len(batches), took)
		batches = append(batches, batch)
		// A cached workload's set-up fills a store under work, which each
		// set-up must start without, so it stays one set-up per sample.
		if def.cache == noCache && batch == 1 {
			batch = max(1, int(setupSample/took))
		}
	}
	setups := setupClock.scaled(len(batches)) // seconds per set-up, one sample per batch
	for i, b := range batches {
		setups[i] /= float64(b)
	}
	chk, err := newChecker(st, o.seed, o.short, root)
	if err != nil {
		return nil, err
	}
	if def.cache == halfCache {
		// The cold result dse-incremental's passes must reproduce.
		if chk.ref, err = (harness.Executor{Par: def.par}).RunSystems(st.systems, st.kernels); err != nil {
			return nil, fmt.Errorf("%s cold reference: %w", def.name, err)
		}
	}

	r := &runResult{Workload: def.name, Seed: o.seed, Short: o.short, Env: currentEnv(), Setups: done}
	// attempt runs one more pass of some kind and counts its cells; a pass
	// that errors fails all of them and ends the run.
	attempt := func(pass func() error) bool {
		r.Attempted += st.cells()
		if err := pass(); err != nil {
			r.Failed += st.cells()
			r.Problems = append(r.Problems, err.Error())
			return false
		}
		return true
	}
	var samples []passSample
	var clock *hostClock // nil for the warm-up pass
	timed := func() error {
		s, err := timedPass(st, chk, clock, len(samples))
		if err == nil {
			samples = append(samples, s)
		}
		return err
	}
	ok := attempt(timed) // warm-up
	samples = samples[:0]
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	// Passes run while the next one, taking the mean time of those so far
	// with the probes between them, still ends within the budget.
	start := time.Now()
	clock = newHostClock(def.par)
	for ok {
		elapsed := time.Since(start).Seconds()
		if len(samples) >= minPasses && elapsed*float64(len(samples)+1)/float64(len(samples)) > budget {
			break
		}
		ok = attempt(timed)
	}
	r.Passes = len(samples)
	n := len(samples)
	scaled := clock.scaled(n)
	walls, mips, allocs, rss := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, s := range samples {
		walls[i], allocs[i], rss[i] = s.wall.Seconds(), s.allocMB, s.rssMB
		mips[i] = float64(s.instructions) / 1e6 / scaled[i]
	}
	r.Metrics = map[string]summary{
		"sweep_s":    summarize("s", scaled),
		"sim_mips":   summarize("Minst/s", mips),
		"setup_s":    summarize("s", setups),
		"alloc_mb":   summarize("MB/pass", allocs),
		"max_rss_mb": summarize("MB", rss),
		// Unscaled, for reading the host's state beside the results.
		"sweep_wall_s": summarize("s", walls),
		"probe_s":      summarize("s", clock.probes),
	}

	if ok && o.trace {
		var passes []passData
		// Traced passes are scaled like the untraced ones, so that the
		// overhead compares the two at one host speed.
		tracedClock := newHostClock(def.par)
		for i := 0; ok && i < tracedPasses; i++ {
			ok = attempt(func() error {
				if err := st.prepare(); err != nil {
					return err
				}
				debug.FreeOSMemory() // as before every untraced pass
				start := time.Now()
				pd, err := tracedPass(st, tr)
				tracedClock.add(len(passes), time.Since(start))
				if err != nil {
					return err
				}
				chk.pass(pd.cells, pd.stats)
				if len(passes) > 0 && !maps.Equal(simCounts(passes[0]), simCounts(pd)) {
					chk.fail(len(pd.simulated), "simulated counts of traced pass %d differ from pass 1", len(passes)+1)
				}
				passes = append(passes, pd)
				return nil
			})
		}
		var obsv observed
		ok = ok && attempt(func() error {
			if err := st.prepare(); err != nil {
				return err
			}
			var err error
			if obsv, err = observedPass(st); err != nil {
				return err
			}
			chk.pass(obsv.pd.cells, obsv.pd.stats)
			return nil
		})
		if ok {
			r.Layers, r.Tails = layerValues(tr, passes, obsv, scaled, tracedClock.scaled(len(passes)))
			if err := tr.writeChrome(filepath.Join(dir, "trace.json")); err != nil {
				return nil, err
			}
			if err := writeJSON(filepath.Join(dir, "layers.json"), map[string]any{
				"workload": def.name, "seed": o.seed, "spans": tr.layers(), "metrics": r.Layers, "tails": r.Tails,
			}); err != nil {
				return nil, err
			}
		}
	}

	r.Failed += chk.failed
	r.Problems = append(r.Problems, chk.problems...)
	r.Correct = ok && r.Failed == 0
	r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	if chk.ref != nil {
		r.Digest = digest(chk.ref)
	}
	return r, writeJSON(filepath.Join(dir, "result.json"), r)
}

// timedPass readies the store, then runs and measures pass number sample
// and checks its output. Every pass starts from a collected heap with
// its free memory returned to the system, so its peak resident memory is
// its own and its collector work does not depend on the pass before it.
// Each RunSystems call of the pass goes to clock, which may probe the
// host before the next; the probes are neither timed nor counted in the
// pass's allocation.
func timedPass(st *state, chk *checker, clock *hostClock, sample int) (passSample, error) {
	if err := st.prepare(); err != nil {
		return passSample{}, err
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return passSample{}, err
	}
	var s passSample
	var parts [][]harness.Cell
	var stats rescache.Stats // a cached workload makes one call
	for _, sys := range st.parts() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		cells, callStats, err := st.run(sys)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return passSample{}, err
		}
		clock.add(sample, wall)
		s.wall += wall
		s.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		parts = append(parts, cells)
		stats = callStats
	}
	rss, err := peakRSSMB()
	if err != nil {
		return passSample{}, err
	}
	cells := st.merge(parts)
	chk.pass(cells, stats)
	s.instructions, s.rssMB = instructions(cells), rss
	return s, nil
}

// instructions is the simulated CPU and GPU instruction count of the
// cells a pass returned, whether simulated or served from the cache.
func instructions(cells []harness.Cell) uint64 {
	var n uint64
	for _, c := range cells {
		n += c.Result.CPU.Instructions + c.Result.GPU.Instructions
	}
	return n
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// resetPeakRSS restarts the kernel's peak resident-set mark for this
// process from its current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the peak resident set since the last reset, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// report prints the run for a reader, then, as the last line, the JSON
// result: the end-to-end metrics, or with trace the per-layer ones, each
// with its value and unit.
func (r *runResult) report(w io.Writer, trace bool) error {
	fmt.Fprintf(w, "%s seed %d: %d set-ups, %d timed passes, %d/%d cells failed, digest %s\n",
		r.Workload, r.Seed, r.Setups, r.Passes, r.Failed, r.Attempted, r.Digest)
	fmt.Fprintf(w, "  env: nproc %d, GOMAXPROCS %d, GOGC %d, %s %s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GOGC, r.Env.Go, r.Env.Platform)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range append(endToEnd, metricDef{"sweep_wall_s", "s"}, metricDef{"probe_s", "s"}) {
		s := r.Metrics[m.name]
		fmt.Fprintf(w, "  %-12s %12.6g %-8s [q1 %.6g, q3 %.6g] min %.6g max %.6g n %d\n",
			m.name, s.Median, m.unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	if !trace {
		for _, m := range endToEnd {
			metrics[m.name] = value{r.Metrics[m.name].Median, m.unit}
		}
	}
	if trace {
		for _, m := range perLayer {
			v := r.Layers[m.name]
			line := fmt.Sprintf("  %-32s %14.6g %s", m.name, v, m.unit)
			if t, ok := r.Tails[m.name]; ok && t.N > 0 {
				line += fmt.Sprintf(" (p%.1f of %d)", t.Percentile, t.N)
			}
			fmt.Fprintln(w, line)
			metrics[m.name] = value{v, m.unit}
		}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// readResult loads a result.json a child run wrote.
func readResult(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// splitList splits a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
