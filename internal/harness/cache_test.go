package harness

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"heteromem/internal/obs"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// TestExecutorCacheColdWarm is the heart of the PR: a cold sweep fills
// the cache, and a warm re-run — through a fresh store on the same
// directory — serves every cell from disk and returns bit-identical
// cells.
func TestExecutorCacheColdWarm(t *testing.T) {
	dir := t.TempDir()
	sysList := systems.CaseStudies()[:3]
	kernels := QuickKernels()
	n := len(sysList) * len(kernels)

	cold, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells1, err := Executor{Par: 2, Cache: cold}.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != uint64(n) || st.Puts != uint64(n) {
		t.Fatalf("cold stats = %+v, want %d misses and puts", st, n)
	}

	warm, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := Executor{Par: 2, Cache: warm}.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != uint64(n) || st.Misses != 0 || st.DiskHits != uint64(n) {
		t.Fatalf("warm stats = %+v, want %d disk hits", st, n)
	}
	if len(cells1) != len(cells2) {
		t.Fatalf("cold %d cells, warm %d", len(cells1), len(cells2))
	}
	for i := range cells1 {
		if cells1[i] != cells2[i] {
			t.Fatalf("cell %d differs:\ncold %+v\nwarm %+v", i, cells1[i], cells2[i])
		}
	}
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorCacheVerifyPasses re-simulates every hit (CacheVerify: 1)
// against an honestly filled cache: determinism says nothing can
// mismatch.
func TestExecutorCacheVerifyPasses(t *testing.T) {
	sysList := systems.CaseStudies()[:2]
	kernels := []string{"reduction"}
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Executor{Par: 2, Cache: cache}).RunSystems(sysList, kernels); err != nil {
		t.Fatal(err)
	}
	if _, err := (Executor{Par: 2, Cache: cache, CacheVerify: 1}).RunSystems(sysList, kernels); err != nil {
		t.Fatalf("verify of an honest cache failed: %v", err)
	}
}

// TestExecutorCacheVerifyCatchesPoison poisons one cache entry and runs
// with full verification: the sweep must fail with ErrCacheMismatch
// rather than silently serving the wrong result.
func TestExecutorCacheVerifyCatchesPoison(t *testing.T) {
	sysList := systems.CaseStudies()[:2]
	kernels := []string{"reduction"}
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Executor{Par: 2, Cache: cache}).RunSystems(sysList, kernels); err != nil {
		t.Fatal(err)
	}

	p, _, err := internProgram("reduction")
	if err != nil {
		t.Fatal(err)
	}
	key := PointKey(sysList[0], p, sim.Options{})
	poisoned, ok := cache.Get(key)
	if !ok {
		t.Fatal("expected the poisoned cell to be cached")
	}
	poisoned.Sequential += 12345
	if err := cache.Put(key, poisoned); err != nil {
		t.Fatal(err)
	}

	_, err = Executor{Par: 2, Cache: cache, CacheVerify: 1}.RunSystems(sysList, kernels)
	if err == nil {
		t.Fatal("poisoned cache passed verification")
	}
	if !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("error does not wrap ErrCacheMismatch: %v", err)
	}
}

// TestCachedCellLedger checks the observability of a warm sweep: cached
// cells appear in the ledger with cached:true, worker -1, a nonzero
// nanosecond wall clock even though they complete in microseconds (the
// sub-ms precision satellite), and the aggregate metrics carry the cache
// counters.
func TestCachedCellLedger(t *testing.T) {
	dir := t.TempDir()
	sysList := systems.CaseStudies()[:2]
	kernels := []string{"reduction"}
	n := len(sysList) * len(kernels)

	cold, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Executor{Par: 2, Cache: cold}).RunSystems(sysList, kernels); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	o := &Observer{Name: "warm", Ledger: led, Trace: obs.NewTracer()}
	warm, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Executor{Par: 2, Obs: o, Cache: warm, CacheVerify: 1}).RunSystems(sysList, kernels); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}

	var cached, verified int
	for _, m := range ledgerLines(t, &buf) {
		if m["t"] != "cell" {
			continue
		}
		if m["cached"] == true {
			cached++
			if m["worker"].(float64) != -1 {
				t.Fatalf("cached cell ran on worker %v", m["worker"])
			}
			// Serving a hit takes microseconds; the ledger must still
			// resolve it (wall_ns is integer nanoseconds, never coarser).
			if w, ok := m["wall_ns"].(float64); !ok || w <= 0 {
				t.Fatalf("cached cell wall_ns = %v, want > 0", m["wall_ns"])
			}
		}
		if m["verify"] == true {
			verified++
			if m["cached"] == true {
				t.Fatal("a cell is both cached and a verify re-run")
			}
		}
	}
	if cached != n || verified != n {
		t.Fatalf("ledger has %d cached and %d verify cells, want %d each", cached, verified, n)
	}

	counters := o.Metrics().Counters
	if _, on := counters["sweep.cells.cached"]; !on {
		t.Fatalf("metrics counters = %v, want the cache's sweep.cells.cached", counters)
	}
	if counters["sweep.cells.cached"] != uint64(n) || counters["sweep.cells.verified"] != uint64(n) {
		t.Fatalf("metrics counters = %v, want %d cached and verified", counters, n)
	}
	// Every probe hit: the store's hit rate is 1.
	if counters["rescache.hits"] != uint64(n) || counters["rescache.misses"] != 0 {
		t.Fatalf("metrics counters = %v", counters)
	}
	if counters["sweep.cells.done"] != counters["sweep.cells.total"] {
		t.Fatalf("sweep.cells.done %d != total %d", counters["sweep.cells.done"], counters["sweep.cells.total"])
	}
}

// TestConcurrentExecutorsShareStore races two sweeps over one store
// (run under -race in CI): workers Put the same keys concurrently and
// both sweeps must return the same cells with a clean store.
func TestConcurrentExecutorsShareStore(t *testing.T) {
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sysList := systems.CaseStudies()[:2]
	kernels := []string{"reduction", "convolution"}

	var wg sync.WaitGroup
	out := make([][]Cell, 2)
	errs := make([]error, 2)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = Executor{Par: 2, Cache: cache}.RunSystems(sysList, kernels)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	if len(out[0]) != len(out[1]) {
		t.Fatalf("sweeps returned %d and %d cells", len(out[0]), len(out[1]))
	}
	for i := range out[0] {
		if out[0][i] != out[1][i] {
			t.Fatalf("cell %d differs between racing sweeps", i)
		}
	}
	if err := cache.Err(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Corrupt != 0 {
		t.Fatalf("racing sweeps left %d corrupt entries", st.Corrupt)
	}
}

// TestVerifySampledDeterministic pins the sampling function: stable per
// key, monotone in the fraction at the boundaries.
func TestVerifySampledDeterministic(t *testing.T) {
	k := rescache.Key{Spec: "s", Kernel: "k", Workload: "w"}
	if verifySampled(k, 0) {
		t.Fatal("fraction 0 selected a key")
	}
	if !verifySampled(k, 1) {
		t.Fatal("fraction 1 rejected a key")
	}
	got := verifySampled(k, 0.5)
	for i := 0; i < 10; i++ {
		if verifySampled(k, 0.5) != got {
			t.Fatal("sampling is not deterministic")
		}
	}
	// Over many keys, a 0.5 fraction should select roughly half — and
	// exactly the same subset on every pass.
	selected := 0
	for i := 0; i < 200; i++ {
		ki := rescache.Key{Spec: "s", Kernel: "k", Workload: string(rune('a' + i%26)), Options: string(rune(i))}
		if verifySampled(ki, 0.5) {
			selected++
		}
	}
	if selected < 60 || selected > 140 {
		t.Fatalf("0.5 fraction selected %d/200 keys", selected)
	}
}

// TestWorkloadFingerprintDistinguishes pins that the fingerprint reacts
// to what it must: materialized streams, transfer shape, and objects.
func TestWorkloadFingerprintDistinguishes(t *testing.T) {
	p1, _, err := internProgram("reduction")
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := internProgram("convolution")
	if err != nil {
		t.Fatal(err)
	}
	if WorkloadFingerprint(p1) != WorkloadFingerprint(p1) {
		t.Fatal("fingerprint is not stable")
	}
	if WorkloadFingerprint(p1) == WorkloadFingerprint(p2) {
		t.Fatal("different kernels share a fingerprint")
	}
}

// TestExecutorKeysMatchPointKey: every key a cached sweep stores is the
// PointKey of its cell, so a store filled by a sweep answers a
// single-point lookup, and the reverse.
func TestExecutorKeysMatchPointKey(t *testing.T) {
	sysList := systems.CaseStudies()[:2]
	kernels := QuickKernels()
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Executor{Par: 2, Cache: cache}.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	// n distinct PointKeys that all hit after exactly n stores: the
	// stored keys are exactly these.
	n := len(sysList) * len(kernels)
	if st := cache.Stats(); st.Puts != uint64(n) {
		t.Fatalf("sweep stored %d results, want %d", st.Puts, n)
	}
	seen := map[rescache.Key]bool{}
	for ki, k := range kernels {
		p, err := workload.Open(k)
		if err != nil {
			t.Fatal(err)
		}
		for si, sys := range sysList {
			key := PointKey(sys, p, sim.Options{})
			seen[key] = true
			res, ok := cache.Get(key)
			if !ok {
				t.Fatalf("%s/%s: PointKey %+v not in the store the sweep filled", sys.Name, k, key)
			}
			if want := cells[ki*len(sysList)+si].Result; res != want {
				t.Fatalf("%s/%s: PointKey serves %+v, the sweep computed %+v", sys.Name, k, res, want)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("%d distinct PointKeys for %d cells", len(seen), n)
	}
}
