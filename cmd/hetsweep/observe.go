package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"heteromem/internal/harness"
	"heteromem/internal/obs"
	"heteromem/internal/rescache"
	"heteromem/internal/systems"
)

// observeConfig is the observability slice of hetsweep's flags.
type observeConfig struct {
	OutDir        string
	IntervalPS    uint64
	HostProfEvery int
	Par           int
	// Cache is the sweep's result cache, reported in the manifest.
	Cache *rescache.Store
}

// observedRun owns a sweep's observability lifetime: the harness
// Observer the Executor reports into and the artifact sinks under -out.
// The zero value (no -out) is inert.
type observedRun struct {
	cfg   observeConfig
	obs   *harness.Observer
	start time.Time
	sweep *sweepInfo
}

// sweepInfo captures what the run's sweeps actually ran, for the
// manifest and results.csv.
type sweepInfo struct {
	systems  []systems.System
	kernels  []string
	cells    []harness.Cell
	gridPath string
	gridSHA  string
	gridName string
}

// setupObservability builds the run's observability from flags: without
// -out it returns an inert run whose observer is nil, leaving the sweep
// fully uninstrumented.
func setupObservability(cfg observeConfig) (*observedRun, error) {
	r := &observedRun{cfg: cfg, start: time.Now()}
	if cfg.OutDir == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	led, err := obs.CreateLedger(filepath.Join(cfg.OutDir, "ledger.jsonl"))
	if err != nil {
		return nil, err
	}
	r.obs = &harness.Observer{Name: "hetsweep", HostProfEvery: cfg.HostProfEvery, Ledger: led, Trace: obs.NewTracer()}
	if cfg.IntervalPS > 0 {
		r.obs.IntervalPS = cfg.IntervalPS
		r.obs.IntervalDir = filepath.Join(cfg.OutDir, "intervals")
	}
	return r, nil
}

// observer returns the harness Observer to attach to the Executor; nil
// when observability is off.
func (r *observedRun) observer() *harness.Observer { return r.obs }

// setSweep records a sweep's shape and cells for the artifact
// directory. Called by every path that runs a sweep, once its cells
// exist; a later sweep of the same run adds its systems, kernels and
// cells to the earlier ones', so the artifacts cover every cell the
// Observer counted.
func (r *observedRun) setSweep(info sweepInfo) {
	if r.obs == nil {
		return
	}
	if r.sweep == nil {
		r.sweep = &info
		return
	}
	r.sweep.systems = slices.Concat(r.sweep.systems, info.systems)
	r.sweep.cells = slices.Concat(r.sweep.cells, info.cells)
	for _, k := range info.kernels {
		if !slices.Contains(r.sweep.kernels, k) {
			r.sweep.kernels = append(slices.Clip(r.sweep.kernels), k)
		}
	}
}

// close flushes the artifact directory (manifest, metrics, trace,
// results). Failures are reported but never mask the sweep's own output.
func (r *observedRun) close() {
	if r.obs == nil {
		return
	}
	if err := r.writeArtifacts(); err != nil {
		log.Printf("warning: writing %s: %v", r.cfg.OutDir, err)
	}
	if err := r.obs.Ledger.Close(); err != nil {
		log.Printf("warning: closing ledger: %v", err)
	}
	if err := r.obs.Err(); err != nil {
		log.Printf("warning: sweep observability: %v", err)
	}
}

func (r *observedRun) writeArtifacts() error {
	dir := r.cfg.OutDir
	metrics := r.obs.Metrics()
	if err := writeFileWith(filepath.Join(dir, "metrics.json"), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(metrics)
	}); err != nil {
		return err
	}
	if r.obs.Trace.Len() > 0 {
		if err := writeFileWith(filepath.Join(dir, "trace.json"), func(f *os.File) error {
			return r.obs.Trace.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	if r.sweep != nil && len(r.sweep.cells) > 0 {
		if err := writeFileWith(filepath.Join(dir, "results.csv"), func(f *os.File) error {
			return harness.WriteCSV(f, r.sweep.cells)
		}); err != nil {
			return err
		}
	}
	return writeFileWith(filepath.Join(dir, "manifest.json"), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(r.manifest(metrics.Counters))
	})
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// manifestSystem names one design point with its canonical spec hash.
type manifestSystem struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// runManifest is the manifest.json document identifying a run artifact.
type runManifest struct {
	Tool        string           `json:"tool"`
	GoVersion   string           `json:"go_version"`
	Args        []string         `json:"args"`
	StartUTC    string           `json:"start_utc"`
	DurationSec float64          `json:"duration_s"`
	Workers     int              `json:"workers"`
	Grid        string           `json:"grid,omitempty"`
	GridSHA256  string           `json:"grid_sha256,omitempty"`
	GridName    string           `json:"grid_name,omitempty"`
	Kernels     []string         `json:"kernels,omitempty"`
	Systems     []manifestSystem `json:"systems,omitempty"`
	Cells       int              `json:"cells"`
	Failed      int              `json:"failed"`
	Cache       *manifestCache   `json:"cache,omitempty"`
}

// manifestCache summarizes the run's result-cache traffic: how much of
// the sweep was served from the cache rather than simulated, and how
// many hits the -cache-verify tripwire re-simulated.
type manifestCache struct {
	Dir           string  `json:"dir,omitempty"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	CachedCells   int     `json:"cached_cells"`
	VerifiedCells int     `json:"verified_cells,omitempty"`
	BytesRead     uint64  `json:"bytes_read,omitempty"`
	BytesWritten  uint64  `json:"bytes_written,omitempty"`
}

// manifest builds manifest.json from the sweep's aggregate counters
// (Observer.Metrics), whose sweep.cells.* entries carry the cell counts.
func (r *observedRun) manifest(counters map[string]uint64) runManifest {
	// The observer reports the worker pool the sweep actually ran with
	// (the -par flag after clamping); fall back to the flag's default
	// resolution if no sweep ran.
	workers := r.obs.Workers()
	if workers == 0 {
		if workers = r.cfg.Par; workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	m := runManifest{
		Tool:        "hetsweep",
		GoVersion:   runtime.Version(),
		Args:        os.Args[1:],
		StartUTC:    r.start.UTC().Format(time.RFC3339),
		DurationSec: time.Since(r.start).Seconds(),
		Workers:     workers,
	}
	m.Cells = int(counters["sweep.cells.done"])
	m.Failed = int(counters["sweep.cells.failed"])
	if r.sweep != nil {
		m.Grid = r.sweep.gridPath
		m.GridSHA256 = r.sweep.gridSHA
		m.GridName = r.sweep.gridName
		m.Kernels = r.sweep.kernels
		for _, s := range r.sweep.systems {
			m.Systems = append(m.Systems, manifestSystem{Name: s.Name, Spec: systems.Hash(s)})
		}
	}
	if r.cfg.Cache != nil {
		st := r.cfg.Cache.Stats()
		m.Cache = &manifestCache{
			Dir:           r.cfg.Cache.Dir(),
			Hits:          st.Hits,
			Misses:        st.Misses,
			HitRate:       st.HitRate(),
			CachedCells:   int(counters["sweep.cells.cached"]),
			VerifiedCells: int(counters["sweep.cells.verified"]),
			BytesRead:     st.BytesRead,
			BytesWritten:  st.BytesWritten,
		}
	}
	return m
}
