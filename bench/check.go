package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
)

// digest is the sha256 of the canonical JSON of the cells, in order.
// Every simulated statistic of every cell feeds it, so two passes with
// the same digest returned the same results.
func digest(cells []harness.Cell) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, c := range cells {
		if err := enc.Encode(c); err != nil {
			// A Cell holds only strings and integers.
			panic("bench: encoding cell: " + err.Error())
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// pinnedJSON holds the digests of full-size passes recorded from the
// simulator as it stood when the benchmark was defined: "fig5" for the
// seed-invariant fig5-cold, "dse" by seed for the sampled design points
// every dse-* workload shares. A change that moves any simulated
// statistic of these cells no longer matches them.
//
//go:embed digests.json
var pinnedJSON []byte

type pinnedDigests struct {
	Fig5 string            `json:"fig5"`
	DSE  map[string]string `json:"dse"`
}

// pinned returns the recorded digest for the workload and seed, or "".
func pinned(def workloadDef, seed int64) (string, error) {
	var p pinnedDigests
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	if !def.dse {
		return p.Fig5, nil
	}
	return p.DSE[strconv.FormatInt(seed, 10)], nil
}

// repoRoot finds the module root from the working directory: the
// nearest directory up that holds the harness goldens.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenDir, "figure5.txt")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s above the working directory; run from the repository", goldenDir)
		}
		dir = parent
	}
}

const goldenDir = "internal/harness/testdata"

// checker applies the output checks to every pass of one workload and
// counts the cells that fail them.
type checker struct {
	st       *state
	ref      []harness.Cell // the cells every pass must return
	golden5  string         // Figure 5/6 goldens (fig5-cold only)
	golden6  string
	pin      string // recorded digest to match, if any
	failed   int
	problems []string
}

// newChecker reads the goldens a workload is checked against. Digests
// are recorded for full-size passes only, so a -short run skips that
// check.
func newChecker(st *state, seed int64, short bool, root string) (*checker, error) {
	c := &checker{st: st, ref: st.fill}
	if !st.def.dse {
		for name, dst := range map[string]*string{"figure5.txt": &c.golden5, "figure6.txt": &c.golden6} {
			data, err := os.ReadFile(filepath.Join(root, goldenDir, name))
			if err != nil {
				return nil, err
			}
			*dst = string(data)
		}
	}
	if !short {
		pin, err := pinned(st.def, seed)
		if err != nil {
			return nil, err
		}
		c.pin = pin
	}
	return c, nil
}

// fail counts cells as failed and records why.
func (c *checker) fail(cells int, format string, args ...any) {
	c.failed += cells
	c.note(format, args...)
}

func (c *checker) note(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// pass checks one pass's cells and the cache counters it left, and
// counts each cell that fails any check once. Without a cold reference
// from set-up, the first pass checked becomes the reference for the rest.
func (c *checker) pass(cells []harness.Cell, stats rescache.Stats) {
	if c.ref == nil {
		c.ref = cells
	}
	if len(cells) != len(c.ref) {
		c.fail(len(c.ref), "pass returned %d cells, want %d", len(cells), len(c.ref))
		return
	}
	bad := make([]bool, len(cells))
	if c.pin != "" {
		if d := digest(cells); d != c.pin {
			c.note("result digest %s differs from the recorded %s", d, c.pin)
			for i := range bad {
				bad[i] = true
			}
		}
		c.pin = ""
	}
	diff := 0
	for i := range cells {
		if cells[i] != c.ref[i] {
			bad[i] = true
			diff++
		}
	}
	if diff > 0 {
		c.note("%d of %d cells differ from the reference pass", diff, len(cells))
	}
	if c.golden5 != "" {
		var quick []harness.Cell
		var at []int
		for i, cell := range cells {
			if slices.Contains(harness.QuickKernels(), cell.Kernel) {
				quick = append(quick, cell)
				at = append(at, i)
			}
		}
		if harness.RenderFigure5(quick) != c.golden5 || harness.RenderFigure6(quick) != c.golden6 {
			c.note("Figure 5/6 rendering differs from %s", goldenDir)
			for _, i := range at {
				bad[i] = true
			}
		}
	}
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	if c.st.def.cache != noCache {
		want := c.st.wantHits()
		misses := c.st.cells() - want
		if int(stats.Hits) != want || int(stats.Misses) != misses || stats.Corrupt != 0 {
			c.note("cache served %d hits, %d misses, %d corrupt; want %d hits, %d misses, 0 corrupt",
				stats.Hits, stats.Misses, stats.Corrupt, want, misses)
			n += max(absDiff(int(stats.Hits), want)+int(stats.Corrupt), 1)
		}
	}
	c.failed += min(n, len(cells))
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
