package obs

import "testing"

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{"x": 1, "y": 2}}
	regB := NewRegistry()
	regB.Counter("x").Add(10)
	regB.Gauge("g").Set(5)
	h := regB.Histogram("h")
	h.Observe(3)
	h.Observe(300)
	b := regB.Snapshot()

	a.Merge(b)
	if a.Counters["x"] != 11 || a.Counters["y"] != 2 {
		t.Errorf("merged counters = %v", a.Counters)
	}
	if a.Gauges["g"] != 5 {
		t.Errorf("merged gauges = %v", a.Gauges)
	}
	mh := a.Histograms["h"]
	if mh.Count != 2 || mh.Sum != 303 {
		t.Errorf("merged histogram = %+v", mh)
	}

	// Merging again doubles the additive parts.
	a.Merge(b)
	if a.Counters["x"] != 21 {
		t.Errorf("second merge x = %d, want 21", a.Counters["x"])
	}
	if a.Histograms["h"].Count != 4 {
		t.Errorf("second merge histogram count = %d, want 4", a.Histograms["h"].Count)
	}
}
