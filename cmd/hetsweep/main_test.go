package main

import (
	"encoding/json"
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
