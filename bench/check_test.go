package main

import (
	"strings"
	"testing"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
)

func testCells() []harness.Cell {
	var cells []harness.Cell
	for _, sys := range []string{"a", "b", "c"} {
		cells = append(cells, harness.Cell{System: sys, Kernel: "reduction",
			Result: sim.Result{System: sys, Kernel: "reduction", Sequential: 1000, Parallel: 7}})
	}
	return cells
}

// threeCells is the state of a workload whose passes return testCells.
func threeCells(t *testing.T, workload string) *state {
	t.Helper()
	def, err := lookupWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	return &state{def: def, systems: make([]systems.System, 3), kernels: []string{"reduction"}}
}

func TestPerturbedResultFailsChecks(t *testing.T) {
	cells := testCells()
	st := threeCells(t, "dse-cold")
	chk := &checker{st: st, pin: digest(cells)}
	chk.pass(cells, rescache.Stats{})
	chk.pass(testCells(), rescache.Stats{})
	if chk.failed != 0 {
		t.Fatalf("identical passes failed %d cells: %v", chk.failed, chk.problems)
	}

	perturbed := testCells()
	perturbed[1].Result.Mem.Accesses[0]++
	if digest(perturbed) == digest(cells) {
		t.Fatal("perturbing one statistic left the digest unchanged")
	}
	chk.pass(perturbed, rescache.Stats{})
	if chk.failed != 1 {
		t.Errorf("a pass with one perturbed cell failed %d cells, want 1", chk.failed)
	}

	pinned := &checker{st: st, pin: digest(cells)}
	pinned.pass(perturbed, rescache.Stats{})
	if pinned.failed == 0 || !strings.Contains(strings.Join(pinned.problems, "\n"), "differs from the recorded") {
		t.Errorf("a first pass off the recorded digest passed: %v", pinned.problems)
	}
}

func TestCacheCountersChecked(t *testing.T) {
	chk := &checker{st: threeCells(t, "dse-incremental")}
	chk.pass(testCells(), rescache.Stats{Hits: 1, Misses: 2})
	if chk.failed != 0 {
		t.Fatalf("one hit of three with a half-filled store failed: %v", chk.problems)
	}
	chk.pass(testCells(), rescache.Stats{Hits: 1, Misses: 2, Corrupt: 1})
	if chk.failed == 0 {
		t.Error("a corrupt blob passed the check")
	}
}
