package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"heteromem/internal/harness"
	"heteromem/internal/obs"
	"heteromem/internal/rescache"
	"heteromem/internal/systems"
)

// observeConfig is the observability slice of hetsweep's flags.
type observeConfig struct {
	OutDir        string
	ServeAddr     string
	IntervalPS    uint64
	HostProfEvery int
	Par           int
	// Cache is the sweep's result cache, reported in the manifest.
	Cache *rescache.Store
}

// observedRun owns a sweep's observability lifetime: the harness
// Observer the Executor reports into, the artifact sinks under -out, and
// the live introspection server under -serve. The zero value (no -out,
// no -serve) is inert.
type observedRun struct {
	cfg    observeConfig
	obs    *harness.Observer
	ledger *obs.Ledger
	tracer *obs.Tracer
	srv    *obs.Server
	start  time.Time
	sweep  *sweepInfo
}

// sweepInfo captures what the primary sweep actually ran, for the
// manifest and results.csv.
type sweepInfo struct {
	systems  []systems.System
	kernels  []string
	cells    []harness.Cell
	gridPath string
	gridSHA  string
	gridName string
}

// setupObservability builds the run's observability from flags: with
// neither -out nor -serve it returns an inert run whose observer is nil,
// leaving the sweep fully uninstrumented.
func setupObservability(cfg observeConfig) (*observedRun, error) {
	r := &observedRun{cfg: cfg, start: time.Now()}
	if cfg.OutDir == "" && cfg.ServeAddr == "" {
		return r, nil
	}
	r.obs = &harness.Observer{Name: "hetsweep", HostProfEvery: cfg.HostProfEvery}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		led, err := obs.CreateLedger(filepath.Join(cfg.OutDir, "ledger.jsonl"))
		if err != nil {
			return nil, err
		}
		r.ledger = led
		r.tracer = obs.NewTracer()
		r.obs.Ledger = led
		r.obs.Trace = r.tracer
		if cfg.IntervalPS > 0 {
			r.obs.IntervalPS = cfg.IntervalPS
			r.obs.IntervalDir = filepath.Join(cfg.OutDir, "intervals")
		}
	}
	if cfg.ServeAddr != "" {
		srv, err := obs.Serve(cfg.ServeAddr, obs.ServerConfig{
			Metrics:  r.obs.Metrics,
			Progress: func() any { return r.obs.Progress() },
		})
		if err != nil {
			return nil, err
		}
		r.srv = srv
		log.Printf("serving sweep introspection on http://%s (/progress, /metrics, /debug/pprof/)", srv.Addr())
	}
	return r, nil
}

// observer returns the harness Observer to attach to the Executor; nil
// when observability is off.
func (r *observedRun) observer() *harness.Observer { return r.obs }

// setSweep records the primary sweep's shape and cells for the artifact
// directory. Called by the grid and case-study paths once their cells
// exist.
func (r *observedRun) setSweep(info sweepInfo) {
	if r.obs == nil {
		return
	}
	r.sweep = &info
}

// close flushes the artifact directory (manifest, metrics, trace,
// results) and stops the server. Failures are reported but never mask
// the sweep's own output.
func (r *observedRun) close() {
	if r.srv != nil {
		if err := r.srv.Close(); err != nil {
			log.Printf("warning: closing introspection server: %v", err)
		}
	}
	if r.obs == nil {
		return
	}
	if r.cfg.OutDir != "" {
		if err := r.writeArtifacts(); err != nil {
			log.Printf("warning: writing %s: %v", r.cfg.OutDir, err)
		}
	}
	if r.ledger != nil {
		if err := r.ledger.Close(); err != nil {
			log.Printf("warning: closing ledger: %v", err)
		}
	}
	if err := r.obs.Err(); err != nil {
		log.Printf("warning: sweep observability: %v", err)
	}
}

func (r *observedRun) writeArtifacts() error {
	dir := r.cfg.OutDir
	if err := writeFileWith(filepath.Join(dir, "metrics.json"), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(r.obs.Metrics())
	}); err != nil {
		return err
	}
	if r.tracer != nil && r.tracer.Len() > 0 {
		if err := writeFileWith(filepath.Join(dir, "trace.json"), func(f *os.File) error {
			return r.tracer.WriteJSON(f)
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
		return enc.Encode(r.manifest())
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

func (r *observedRun) manifest() runManifest {
	prog := r.obs.Progress()
	// The observer reports the worker pool the sweep actually ran with
	// (the -par flag after clamping); fall back to the flag's default
	// resolution if no sweep ran.
	workers := len(prog.Workers)
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
	m.Cells, m.Failed = prog.Done, prog.Failed
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
			CachedCells:   prog.CachedCells,
			VerifiedCells: prog.VerifiedCells,
			BytesRead:     st.BytesRead,
			BytesWritten:  st.BytesWritten,
		}
	}
	return m
}
