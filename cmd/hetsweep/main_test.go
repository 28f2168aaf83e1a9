package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
	"heteromem/internal/systems"
)

func TestSplitKernels(t *testing.T) {
	got, err := splitKernels(" reduction, ,dct ")
	if err != nil || !slices.Equal(got, []string{"reduction", "dct"}) {
		t.Fatalf("splitKernels = %q, %v; want [reduction dct]", got, err)
	}
	if _, err := splitKernels(" , "); err == nil {
		t.Error("a flag naming no kernels was accepted")
	}
	// A repeated kernel would be simulated and reported twice.
	_, err = splitKernels("reduction,dct, reduction")
	if err == nil || !strings.Contains(err.Error(), `"reduction" twice`) {
		t.Errorf("repeated kernel: err = %v, want one naming \"reduction\"", err)
	}
}

// observedSweep runs a two-point, one-kernel sweep under -out in a fresh
// directory and returns the manifest.json it wrote, failing the test
// unless the manifest's cell, failure, worker and cache counts are the
// Observer's sweep.cells.* counters and pool size.
func observedSweep(t *testing.T, cache *rescache.Store, verify float64) runManifest {
	t.Helper()
	dir := t.TempDir()
	run, err := setupObservability(observeConfig{OutDir: dir, Par: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	sysList := systems.CaseStudies()[:2]
	kernels := []string{"reduction"}
	exec := harness.Executor{Par: 2, Obs: run.observer(), Cache: cache, CacheVerify: verify}
	cells, err := exec.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	run.setSweep(sweepInfo{systems: sysList, kernels: kernels, cells: cells})
	run.close()

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m runManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	c := run.obs.Metrics().Counters
	got := []int{m.Cells, m.Failed, m.Workers}
	want := []int{int(c["sweep.cells.done"]), int(c["sweep.cells.failed"]), run.obs.Workers()}
	if m.Cache != nil {
		got = append(got, m.Cache.CachedCells, m.Cache.VerifiedCells)
		want = append(want, int(c["sweep.cells.cached"]), int(c["sweep.cells.verified"]))
	}
	if !slices.Equal(got, want) {
		t.Errorf("manifest cells, failed, workers[, cached, verified] = %v; observer has %v", got, want)
	}
	return m
}

func TestManifestMatchesObserver(t *testing.T) {
	m := observedSweep(t, nil, 0)
	if m.Cells != 2 || m.Failed != 0 || m.Workers != 2 || m.Cache != nil {
		t.Errorf("uncached manifest = %+v, want 2 cells, 0 failed, 2 workers, no cache block", m)
	}

	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if _, err := (harness.Executor{Par: 2, Cache: cache}).RunSystems(systems.CaseStudies()[:2], []string{"reduction"}); err != nil {
		t.Fatal(err)
	}
	m = observedSweep(t, cache, 1)
	if m.Cache == nil {
		t.Fatal("warm manifest has no cache block")
	}
	if m.Cells != 2 || m.Cache.CachedCells != 2 || m.Cache.VerifiedCells != 2 {
		t.Errorf("warm manifest = %+v, cache %+v; want 2 cells, all cached and verified", m, *m.Cache)
	}
}

// TestTwoSweepsShareArtifacts runs two sweeps on one Observer, as
// -all does for Figures 5 and 7: the manifest, metrics.json, the ledger
// and results.csv must all count the cells of both, and the manifest
// must report the larger worker pool.
func TestTwoSweepsShareArtifacts(t *testing.T) {
	dir := t.TempDir()
	run, err := setupObservability(observeConfig{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	kernels := []string{"reduction"}
	for i, sweep := range []struct {
		systems []systems.System
		par     int
	}{
		{systems.CaseStudies()[:2], 2},
		{systems.AddressSpaces()[:3], 1},
	} {
		cells, err := harness.Executor{Par: sweep.par, Obs: run.observer()}.RunSystems(sweep.systems, kernels)
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		run.setSweep(sweepInfo{systems: sweep.systems, kernels: kernels, cells: cells})
	}
	run.close()
	const cells = 5

	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var m runManifest
	if err := json.Unmarshal(read("manifest.json"), &m); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if m.Cells != cells || len(m.Systems) != cells || m.Workers != 2 || !slices.Equal(m.Kernels, kernels) {
		t.Errorf("manifest cells %d, systems %d, workers %d, kernels %q; want %d, %d, 2, %q",
			m.Cells, len(m.Systems), m.Workers, m.Kernels, cells, cells, kernels)
	}
	var metrics struct{ Counters map[string]uint64 }
	if err := json.Unmarshal(read("metrics.json"), &metrics); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	for _, name := range []string{"sweep.cells.total", "sweep.cells.done", "sweep.sims_built"} {
		if got := metrics.Counters[name]; got != cells {
			t.Errorf("metrics.json %s = %d, want %d", name, got, cells)
		}
	}
	var records int
	for _, line := range strings.Split(strings.TrimSpace(string(read("ledger.jsonl"))), "\n") {
		if strings.Contains(line, `"t":"cell"`) {
			records++
		}
	}
	if records != cells {
		t.Errorf("ledger has %d cell records, want %d", records, cells)
	}
	if rows := strings.Count(string(read("results.csv")), "\n") - 1; rows != cells {
		t.Errorf("results.csv has %d rows, want %d", rows, cells)
	}

	// Both sweeps share one time axis: the second's cell slices begin
	// after the first's end.
	var trace struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
		}
	}
	if err := json.Unmarshal(read("trace.json"), &trace); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	firstEnd, secondStart := 0.0, math.Inf(1)
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph != "X":
		case strings.HasPrefix(e.Name, "ideal-"):
			secondStart = min(secondStart, e.Ts)
		default:
			firstEnd = max(firstEnd, e.Ts+e.Dur)
		}
	}
	if !(firstEnd > 0 && secondStart >= firstEnd) {
		t.Errorf("second sweep's slices start at %v us, the first's end at %v us", secondStart, firstEnd)
	}
}
