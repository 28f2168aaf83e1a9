package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// record is the results.json a run of several workloads writes: the
// environment, the flags that shape the numbers, and each workload's
// result.
type record struct {
	Env       env                   `json:"env"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Short     bool                  `json:"short,omitempty"`
	Workloads map[string]*runResult `json:"workloads"`
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// Verdicts of a comparison row.
const (
	improved    = "improved"
	worse       = "worse"
	withinBound = "within-bound"
	unresolved  = "unresolved"
)

// absFloor is, per metric, the smallest change in its unit that counts
// whatever the bound. Set-up takes microseconds on fig5-cold and
// milliseconds on dse-cold, where scheduler noise alone moves it past
// any share of the median; a set-up change under 50 ms goes unnoticed
// by a user.
var absFloor = map[string]float64{"setup_s": 0.050}

// notch is how uncertain the median of a summary's samples is: the
// half-width of a box plot's notch, 1.58·IQR/√n (McGill, Tukey and
// Larsen, 1978). The IQR of the samples alone would call a median of
// 4000 passes of a few milliseconds as uncertain as one pass.
func notch(s summary) float64 {
	return 1.58 * (s.Q3 - s.Q1) / math.Sqrt(float64(max(s.N, 1)))
}

// verdict compares the new summary of a metric against the old one by
// the value a run reports, the median. The tolerance of a side is the
// bound's share of that value, or the metric's absolute floor when that
// is larger. When either side's median is less certain than its
// tolerance (see notch) the difference cannot be resolved. Otherwise the
// change counts as better or worse when the values differ by more than
// the old tolerance.
func verdict(b boundDef, old, cur summary) string {
	o, c := old.Median, cur.Median
	tol := func(v float64) float64 { return max(b.Bound*math.Abs(v), absFloor[b.Name]) }
	if o == 0 || notch(old) > tol(o) || notch(cur) > tol(c) {
		return unresolved
	}
	loss := c - o
	if b.Better == "higher" {
		loss = -loss
	}
	switch {
	case loss > tol(o):
		return worse
	case -loss > tol(o):
		return improved
	}
	return withinBound
}

// compareRow is one (workload, metric) line of a comparison: the
// reported values (medians), the quartiles of the samples behind them
// and the verdict.
type compareRow struct {
	workload, metric, unit string
	oldV, curV             float64
	old, cur               summary
	verdict                string
}

// compareRecords compares every end-to-end metric of every workload the
// two records share, plus each workload's failed fraction, which may not
// grow at all.
func compareRecords(old, cur *record, bounds []boundDef) []compareRow {
	var rows []compareRow
	for _, def := range workloadDefs {
		o, c := old.Workloads[def.name], cur.Workloads[def.name]
		if o == nil || c == nil {
			continue
		}
		for _, b := range bounds {
			om, cm := o.Metrics[b.Name], c.Metrics[b.Name]
			rows = append(rows, compareRow{workload: def.name, metric: b.Name, unit: b.Unit,
				oldV: om.Median, curV: cm.Median, old: om, cur: cm, verdict: verdict(b, om, cm)})
		}
		row := compareRow{workload: def.name, metric: "failed_frac", unit: "ratio", verdict: withinBound,
			oldV: o.FailedFrac, curV: c.FailedFrac}
		switch {
		case c.FailedFrac > o.FailedFrac:
			row.verdict = worse
		case c.FailedFrac < o.FailedFrac:
			row.verdict = improved
		}
		rows = append(rows, row)
	}
	return rows
}

// printRows writes the comparison table and reports whether any row is
// worse.
func printRows(w io.Writer, rows []compareRow) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-12s %-8s %24s %24s %7s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	for _, r := range rows {
		change := 0.0
		if r.oldV != 0 {
			change = 100 * (r.curV - r.oldV) / r.oldV
		}
		fmt.Fprintf(w, "%-16s %-12s %-8s %24s %24s %+6.1f%%  %s\n", r.workload, r.metric, r.unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.oldV, r.old.Q1, r.old.Q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.curV, r.cur.Q1, r.cur.Q3),
			change, r.verdict)
		anyWorse = anyWorse || r.verdict == worse
	}
	return anyWorse
}
