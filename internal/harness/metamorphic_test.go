package harness

import (
	"testing"

	"heteromem/internal/systems"
)

// TestIdealHeteroBoundsCaseStudies checks a relation the Figure 5 golden
// pins only by value: IDEAL-HETERO, the unified coherent system with the
// ideal fabric, pays no communication, and on every kernel its total is
// at most that of every other case study.
func TestIdealHeteroBoundsCaseStudies(t *testing.T) {
	cells, err := quickCells()
	if err != nil {
		t.Fatal(err)
	}
	name := systems.IdealHetero().Name
	ideal := map[string]Cell{}
	for _, c := range cells {
		if c.System == name {
			ideal[c.Kernel] = c
		}
	}
	for _, k := range QuickKernels() {
		c, ok := ideal[k]
		if !ok {
			t.Fatalf("no %s cell for %s", name, k)
		}
		if c.Result.Communication != 0 {
			t.Errorf("%s/%s: communication %v, want 0", name, k, c.Result.Communication)
		}
	}
	for _, c := range cells {
		if c.System == name {
			continue
		}
		if id := ideal[c.Kernel].Result.Total(); id > c.Result.Total() {
			t.Errorf("%s: %s total %v exceeds %s's %v", c.Kernel, name, id, c.System, c.Result.Total())
		}
	}
}
