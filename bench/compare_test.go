package main

import "testing"

func TestVerdict(t *testing.T) {
	// sum builds a summary with the given median and quartiles; its
	// extremes sit 0.2 beyond the quartiles.
	sum := func(median, q1, q3 float64) summary {
		return summary{Median: median, Q1: q1, Q3: q3, Min: q1 - 0.2, Max: q3 + 0.2, N: 10}
	}
	steady := sum(10, 9.9, 10.1)
	// A set-up of milliseconds, noisy as a share of itself but well
	// inside the absolute floor of setup_s.
	setup := summary{Median: 0.005, Q1: 0.004, Q3: 0.007, N: 10}
	setupAt := func(v float64) summary { return summary{Median: v, Q1: v - 0.001, Q3: v + 0.001, N: 10} }
	memory := boundDef{Name: "alloc_mb", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		name     string
		b        boundDef
		old, cur summary
		want     string
	}{
		{"same", memory, steady, steady, withinBound},
		{"more inside the bound", memory, steady, sum(10.8, 10.7, 10.9), withinBound},
		{"more beyond the bound", memory, steady, sum(11.5, 11.4, 11.6), worse},
		{"less beyond the bound", memory, steady, sum(8.5, 8.4, 8.6), improved},
		// With 10 samples a median is uncertain by half the IQR.
		{"old median less certain than the bound", memory, sum(10, 8.5, 11.5), sum(12, 11.9, 12.1), unresolved},
		{"new median less certain than the bound", memory, steady, sum(12, 10.5, 13.5), unresolved},
		{"wide spread over many samples", memory, summary{Median: 10, Q1: 8, Q3: 12, N: 4000}, steady, withinBound},
		{"zero old value", memory, sum(0, 0, 0), steady, unresolved},
		// The median decides, whatever the fastest pass took.
		{"slower beyond the bound", boundDef{Name: "sweep_s", Better: "lower", Bound: 0.1}, steady,
			sum(11.5, 11.4, 11.6), worse},
		{"slow median, same fastest pass", boundDef{Name: "sweep_s", Better: "lower", Bound: 0.1}, steady,
			summary{Median: 11.5, Q1: 11.2, Q3: 11.8, Min: 9.7, Max: 12, N: 10}, worse},
		{"throughput down beyond the bound", boundDef{Name: "sim_mips", Better: "higher", Bound: 0.1}, steady,
			sum(8.5, 8.4, 8.6), worse},
		{"throughput up beyond the bound", boundDef{Name: "sim_mips", Better: "higher", Bound: 0.1}, steady,
			sum(11.5, 11.4, 11.6), improved},
		{"small set-up doubling under the floor", boundDef{Name: "setup_s", Better: "lower", Bound: 0.1}, setup,
			setupAt(0.01), withinBound},
		{"small set-up growing past the floor", boundDef{Name: "setup_s", Better: "lower", Bound: 0.1}, setup,
			setupAt(0.06), worse},
		{"small value without a floor", memory, setup, setupAt(0.01), unresolved},
		{"floor below the bound's share", boundDef{Name: "setup_s", Better: "lower", Bound: 0.1}, steady,
			sum(11.5, 11.4, 11.6), worse},
	} {
		if got := verdict(c.b, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecordsFailedFraction(t *testing.T) {
	result := func(failed float64) *runResult {
		return &runResult{FailedFrac: failed, Metrics: map[string]summary{"sweep_s": {Median: 1, Q1: 1, Q3: 1, Min: 1, Max: 1, N: 3}}}
	}
	bounds := []boundDef{{Name: "sweep_s", Unit: "s", Better: "lower", Bound: 0.1}}
	old := &record{Workloads: map[string]*runResult{"dse-cold": result(0)}}
	cur := &record{Workloads: map[string]*runResult{"dse-cold": result(0.01), "dse-warm": result(0)}}
	rows := compareRecords(old, cur, bounds)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want sweep_s and failed_frac of dse-cold only", len(rows))
	}
	if rows[0].verdict != withinBound || rows[1].metric != "failed_frac" || rows[1].verdict != worse {
		t.Errorf("rows %+v", rows)
	}
}
