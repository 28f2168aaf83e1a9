package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heteromem/internal/obs"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
)

func TestCheckFlags(t *testing.T) {
	const cyclePS = 285 // the 3.5 GHz CPU cycle
	for _, c := range []struct {
		name     string
		cycles   uint64
		hostprof int
		verify   float64
		wantPS   uint64
		wantErr  string
	}{
		{name: "defaults", cycles: 100_000, hostprof: 32, wantPS: 100_000 * cyclePS},
		{name: "interval off", cycles: 0, hostprof: 0, verify: 1},
		{name: "largest epoch", cycles: math.MaxUint64 / cyclePS, wantPS: math.MaxUint64 / cyclePS * cyclePS},
		{name: "epoch overflows", cycles: math.MaxUint64/cyclePS + 1, wantErr: "-interval-cycles"},
		{name: "hostprof at 2^32-1", hostprof: math.MaxUint32},
		{name: "hostprof truncates", hostprof: 1 << 32, wantErr: "-hostprof"},
		{name: "hostprof negative", hostprof: -1, wantErr: "-hostprof"},
		{name: "verify NaN", verify: math.NaN(), wantErr: "-cache-verify"},
		{name: "verify negative", verify: -0.1, wantErr: "-cache-verify"},
		{name: "verify above one", verify: 1.5, wantErr: "-cache-verify"},
		{name: "verify infinite", verify: math.Inf(1), wantErr: "-cache-verify"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps, err := CheckFlags(c.cycles, c.hostprof, c.verify)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
				}
				return
			}
			if err != nil || ps != c.wantPS {
				t.Fatalf("CheckFlags = %d, %v; want %d, nil", ps, err, c.wantPS)
			}
		})
	}
}

// ledgerLines decodes every JSONL line of a ledger buffer.
func ledgerLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad ledger line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestObservedSweepLedger(t *testing.T) {
	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	tracer := obs.NewTracer()
	o := &Observer{Name: "test-sweep", Ledger: led, Trace: tracer, HostProfEvery: 4}
	sysList := systems.CaseStudies()[:2]
	kernels := QuickKernels()

	cells, err := Executor{Par: 2, Obs: o}.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	n := len(sysList) * len(kernels)
	if len(cells) != n {
		t.Fatalf("got %d cells, want %d", len(cells), n)
	}

	lines := ledgerLines(t, &buf)
	var cellRecs, sweepSpans, pointSpans, kernelSpans, phaseSpans int
	wantSpec := map[string]string{}
	for _, s := range sysList {
		wantSpec[s.Name] = systems.Hash(s)
	}
	seen := map[string]bool{}
	for _, m := range lines {
		switch m["t"] {
		case "cell":
			cellRecs++
			sys, kernel := m["system"].(string), m["kernel"].(string)
			key := sys + "/" + kernel
			if seen[key] {
				t.Errorf("duplicate cell record for %s", key)
			}
			seen[key] = true
			if m["spec"] != wantSpec[sys] {
				t.Errorf("cell %s: spec %v, want %s", key, m["spec"], wantSpec[sys])
			}
			if m["total_ps"] == nil || m["total_ps"].(float64) <= 0 {
				t.Errorf("cell %s: missing total_ps", key)
			}
			if m["wall_ns"] == nil || m["wall_ns"].(float64) <= 0 {
				t.Errorf("cell %s: missing wall_ns", key)
			}
			if _, ok := m["queue_wait_ns"]; !ok {
				t.Errorf("cell %s: missing queue_wait_ns", key)
			}
			if m["span"] == nil {
				t.Errorf("cell %s: not linked to a span", key)
			}
		case "span":
			switch m["kind"] {
			case "sweep":
				sweepSpans++
				if m["name"] != "test-sweep" {
					t.Errorf("sweep span named %v", m["name"])
				}
			case "point":
				pointSpans++
			case "kernel":
				kernelSpans++
			case "phase":
				phaseSpans++
			}
		}
	}
	if cellRecs != n {
		t.Errorf("%d cell records, want %d", cellRecs, n)
	}
	if sweepSpans != 1 || pointSpans != len(sysList) || kernelSpans != n {
		t.Errorf("spans sweep=%d point=%d kernel=%d, want 1/%d/%d",
			sweepSpans, pointSpans, kernelSpans, len(sysList), n)
	}
	if phaseSpans == 0 {
		t.Error("no phase spans: simulator run spans not wired")
	}

	snap := o.Metrics()
	if c := snap.Counters; c["sweep.cells.done"] != uint64(n) || c["sweep.cells.total"] != uint64(n) || c["sweep.cells.failed"] != 0 {
		t.Errorf("sweep.cells done=%d total=%d failed=%d, want done=total=%d failed=0",
			c["sweep.cells.done"], c["sweep.cells.total"], c["sweep.cells.failed"], n)
	}
	if w := o.Workers(); w != 2 {
		t.Errorf("%d workers, want 2", w)
	}
	var simCounters, hostCounters int
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sweep.") {
			continue
		}
		if strings.HasPrefix(name, "host.") {
			hostCounters++
		}
		if v > 0 {
			simCounters++
		}
	}
	if simCounters == 0 {
		t.Error("aggregate snapshot has no nonzero simulator counters")
	}
	if hostCounters == 0 {
		t.Error("aggregate snapshot has no host.* self-profiling counters")
	}

	if tracer.Len() < n {
		t.Errorf("tracer has %d events, want at least one per cell (%d)", tracer.Len(), n)
	}
}

// The observed sweep must return exactly the same simulation results as
// an unobserved one: observability reads time, never simulated state.
func TestObservedSweepMatchesPlain(t *testing.T) {
	sysList := systems.CaseStudies()[:2]
	kernels := QuickKernels()
	plain, err := Executor{Par: 2}.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := &Observer{Ledger: obs.NewLedger(&buf), HostProfEvery: 1}
	observed, err := Executor{Par: 2, Obs: o}.RunSystems(sysList, kernels)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(observed) {
		t.Fatalf("cell count mismatch %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Errorf("cell %d diverged under observation:\n got %+v\nwant %+v", i, observed[i], plain[i])
		}
	}
}

func TestObservedSweepIntervalCSVs(t *testing.T) {
	dir := t.TempDir()
	o := &Observer{IntervalPS: 1_000_000_000, IntervalDir: dir} // 1ms epochs
	sysList := systems.CaseStudies()[:1]
	kernels := []string{"reduction"}
	if _, err := (Executor{Par: 1, Obs: o}).RunSystems(sysList, kernels); err != nil {
		t.Fatal(err)
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("got %d interval CSVs, want 1 (%v)", len(matches), matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines < 2 {
		t.Errorf("interval CSV has %d lines, want header plus epochs", lines)
	}
}

func TestNilObserverIsNoop(t *testing.T) {
	var o *Observer
	o.begin(1, 1, nil)
	span := o.beginCell("s", "k", "kernel")
	o.endCell(0, span, CellRecord{}, obs.Snapshot{}, time.Time{}, time.Time{})
	o.cachedCell("s", "spec", "k", sim.Result{}, 0, time.Time{})
	o.simBuilt()
	o.finish()
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	if w := o.Workers(); w != 0 {
		t.Error("nil observer workers not zero")
	}
	if s := o.Metrics(); len(s.Counters) != 0 {
		t.Error("nil observer metrics not empty")
	}
}
