package harness

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The case-study sweep over the quick kernels is the expensive part;
// share it across tests.
var quickCells = sync.OnceValues(func() ([]Cell, error) {
	return RunCaseStudies(QuickKernels())
})

func TestRunCaseStudiesShape(t *testing.T) {
	cells, err := quickCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5*len(QuickKernels()) {
		t.Fatalf("cells = %d, want %d", len(cells), 5*len(QuickKernels()))
	}
	for _, c := range cells {
		if c.Result.Total() == 0 {
			t.Errorf("%s/%s: zero total", c.System, c.Kernel)
		}
	}
}

func TestRenderFigure5(t *testing.T) {
	cells, err := quickCells()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFigure5(cells)
	for _, want := range []string{"Figure 5", "CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO", "reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 5 output missing %q", want)
		}
	}
	// CPU+GPU normalises to 1.000 against itself.
	if !strings.Contains(out, "1.000") {
		t.Error("no normalised 1.000 row")
	}
}

func TestRenderFigure6(t *testing.T) {
	cells, err := quickCells()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFigure6(cells)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "comm") {
		t.Error("Figure 6 output malformed")
	}
	// IDEAL shows zero communication.
	if !strings.Contains(out, "0ps") {
		t.Error("no zero-communication row for IDEAL")
	}
}

func TestFigure7NearIdentical(t *testing.T) {
	cells, err := RunAddressSpaces([]string{"reduction"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4 models", len(cells))
	}
	out := RenderFigure7(cells)
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "UNI") {
		t.Error("Figure 7 output malformed")
	}
	// All normalised values round to 1.000 (sub-1% deltas).
	if strings.Count(out, "1.000") < 4 {
		t.Errorf("address spaces not near-identical:\n%s", out)
	}
}

func TestRenderTables(t *testing.T) {
	cases := []struct {
		name string
		out  string
		want []string
	}{
		{"table1", RenderTable1(), []string{"Table I", "GMAC", "ADSM", "13 systems", "strong-consistent unified: 0"}},
		{"table2", RenderTable2(), []string{"Table II", "3.5GHz", "1.5GHz", "gshare", "ring-bus", "DDR3-1333", "FR-FCFS"}},
		{"table3", RenderTable3(), []string{"Table III", "reduction", "8585229", "320512", "true"}},
		{"table4", RenderTable4(), []string{"Table IV", "api-pci", "33250", "42000"}},
		{"table5", RenderTable5(), []string{"Table V", "410", "matrix-mul", "true"}},
		{"locality", RenderLocalityOptions(), []string{"partially-shared", "12"}},
	}
	for _, c := range cases {
		for _, w := range c.want {
			if !strings.Contains(c.out, w) {
				t.Errorf("%s output missing %q:\n%s", c.name, w, c.out)
			}
		}
		if strings.Contains(c.out, "false") {
			t.Errorf("%s reports a paper mismatch:\n%s", c.name, c.out)
		}
	}
}

// TestRenderTable3AllocBudget pins Table III to the opened programs:
// it needs phase lengths, never the 27M generated instructions.
func TestRenderTable3AllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RenderTable3()
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Errorf("RenderTable3 allocated %.1f MB, want under 16 MB", mb)
	}
}

func TestRenderEnergy(t *testing.T) {
	cells, err := quickCells()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderEnergy(cells)
	for _, want := range []string{"Energy breakdown", "cores", "dram", "CPU+GPU", "IDEAL-HETERO"} {
		if !strings.Contains(out, want) {
			t.Errorf("energy output missing %q", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	cells, err := quickCells()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+len(cells) {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+len(cells))
	}
	if !strings.HasPrefix(lines[0], "system,kernel,sequential_ns") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "CPU+GPU,reduction") {
		t.Error("missing data row")
	}
}

func TestDefaultAndQuickKernels(t *testing.T) {
	if len(DefaultKernels()) != 6 {
		t.Errorf("default kernels = %v", DefaultKernels())
	}
	for _, q := range QuickKernels() {
		found := false
		for _, d := range DefaultKernels() {
			if q == d {
				found = true
			}
		}
		if !found {
			t.Errorf("quick kernel %q not in default set", q)
		}
	}
}
