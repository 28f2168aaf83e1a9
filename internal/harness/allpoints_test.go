package harness_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromem/internal/harness"
	"heteromem/internal/systems"
)

// allPointsGolden holds one line per (design point, kernel) cell of the
// zero grid with whole-object and 4 KiB fault granularities: every
// coherent (model, fabric, protocol, granularity) combination.
const allPointsGolden = "allpoints.txt"

// allPointsRendering simulates every coherent point of the zero grid on
// reduction and convolution (two kernel entries, two device-to-host
// copies) and renders one line per cell: the point, the kernel, the
// total in picoseconds and a sha256 of the JSON result. The digest
// covers every counter, so a protocol or fabric that moves any of them
// on any point shows up, not only the ones the figures plot.
func allPointsRendering(t *testing.T) string {
	t.Helper()
	points, _ := systems.Grid{FaultGranularities: []uint64{0, 4096}}.Enumerate()
	if len(points) != 60 {
		t.Fatalf("zero grid with two granularities has %d coherent points, want 60", len(points))
	}
	cells, err := harness.Executor{Par: 2}.RunSystems(points, []string{"reduction", "convolution"})
	if err != nil {
		t.Fatalf("RunSystems: %v", err)
	}
	var b strings.Builder
	for _, c := range cells {
		blob, err := json.Marshal(c.Result)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s %d %x\n", c.System, c.Kernel, int64(c.Result.Total()), sha256.Sum256(blob))
	}
	return b.String()
}

// TestAllPointsGolden pins every coherent design point's result. The
// golden file was written before the protocol and fabric kinds became
// data, and refactors must pass against it unchanged; only a change
// that means to move results regenerates it, with
//
//	go test ./internal/harness -run TestAllPointsGolden -update
func TestAllPointsGolden(t *testing.T) {
	got := allPointsRendering(t)
	path := filepath.Join("testdata", allPointsGolden)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s: %v", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell %d differs:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
