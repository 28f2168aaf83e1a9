package main

import (
	"math"
	"testing"
)

func TestHostClockScalesEachStretchByItsProbes(t *testing.T) {
	// Probes of twice, four times and once the reference time bound three
	// stretches: sample 0 has two, sample 1 one.
	c := &hostClock{
		par:    1,
		probes: []float64{2 * probeRef, 4 * probeRef, probeRef},
		stretches: []stretch{
			{sample: 0, probe: 0, wall: 8},
			{sample: 0, probe: 1, wall: 2},
			{sample: 1, probe: 1, wall: 6},
		},
	}
	got := c.scaled(2)
	want := []float64{8/math.Sqrt(8) + 2/math.Sqrt(4), 6 / math.Sqrt(4)}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("sample %d: scaled %g, want %g", i, got[i], want[i])
		}
	}
	if len(c.probes) != 3 {
		t.Errorf("%d probes; every stretch had its closing probe, so none should be added", len(c.probes))
	}
}

func TestHostClockClosesTheLastStretch(t *testing.T) {
	c := newHostClock(2)
	c.stretches = append(c.stretches, stretch{sample: 0, probe: 0, wall: 1})
	got := c.scaled(1)
	if len(c.probes) != 2 {
		t.Fatalf("%d probes after scaling an open stretch, want 2", len(c.probes))
	}
	if got[0] <= 0 || math.IsInf(got[0], 0) || math.IsNaN(got[0]) {
		t.Errorf("scaled %g", got[0])
	}
}
