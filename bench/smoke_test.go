package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShortSmoke runs every workload of BENCHMARK.json at -short size,
// traced, and checks that the result lines carry every end-to-end and
// per-layer metric BENCHMARK.json names, with its unit, and no failure.
func TestShortSmoke(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadDefs))
	}
	out := t.TempDir()
	for _, w := range b.Workloads {
		r, err := runWorkload(options{workload: w.Name, seed: 1, seconds: 0.05, trace: true, short: true, out: out})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Failed != 0 || r.FailedFrac != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d cells failed: %v", w.Name, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		for _, c := range []struct {
			trace   bool
			metrics []boundDef
		}{{false, b.EndToEnd}, {true, b.PerLayer}} {
			var buf bytes.Buffer
			if err := r.report(&buf, c.trace); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			if len(line.Metrics) != len(c.metrics) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, c.trace, len(line.Metrics), len(c.metrics))
			}
			for _, m := range c.metrics {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.Name, c.trace, m.Name, got, m.Unit)
				}
				if !c.trace && ok && got.Value != nil && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %g", w.Name, m.Name, *got.Value)
				}
			}
		}
		for _, name := range []string{"trace.json", "layers.json", "result.json"} {
			if _, err := os.Stat(filepath.Join(out, w.Name, name)); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}
