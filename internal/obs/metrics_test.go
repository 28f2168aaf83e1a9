package obs

import (
	"strings"
	"testing"

	"heteromem/internal/clock"
)

func TestRegistryRegistrationAndLookup(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("cpu.instructions")
	c2 := r.Counter("cpu.instructions")
	if c1 != c2 {
		t.Fatal("re-registering a counter must return the same instance")
	}
	c1.Add(3)
	if got := r.CounterValue("cpu.instructions"); got != 3 {
		t.Fatalf("CounterValue = %d, want 3", got)
	}
	if _, ok := r.LookupCounter("gpu.instructions"); ok {
		t.Fatal("lookup of unregistered counter must fail")
	}
	if len(r.Counters()) != 1 {
		t.Fatalf("got %d counters, want 1", len(r.Counters()))
	}

	g := r.Gauge("mem.mshr.cpu")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	if r.Gauge("mem.mshr.cpu") != g {
		t.Fatal("re-registering a gauge must return the same instance")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("cpu.instructions")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// None of these may panic.
	c.Inc()
	c.Add(10)
	g.Set(5)
	h.Observe(123)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	var s *Sampler
	s.Advance(100)
	s.Finish(200)
	s.AddDerived("d", nil)
	if s.Samples() != nil {
		t.Fatal("nil sampler must have no samples")
	}
	if err := s.WriteCSV(nil); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	tr.Span(TrackCPU, "a", "b", 0, 1, nil)
	tr.Instant(TrackGPU, "a", "b", 0, nil)
	tr.Counter("c", 0, 1)
	if tr.Len() != 0 {
		t.Fatal("nil tracer must have no events")
	}
	if err := tr.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 0 -> bucket [0,1); 1 -> [1,2); 2,3 -> [2,4); 1000 -> [512,1024).
	for _, v := range []uint64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1006 {
		t.Fatalf("sum = %d, want 1006", h.Sum())
	}
	want := []Bucket{
		{Lo: 0, Hi: 1, Count: 1},
		{Lo: 1, Hi: 2, Count: 1},
		{Lo: 2, Hi: 4, Count: 2},
		{Lo: 512, Hi: 1024, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("got %d buckets %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h.Mean() != 1006.0/5 {
		t.Fatalf("mean = %g", h.Mean())
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(2)
	r.Gauge("b.level").Set(9)
	r.Histogram("c.lat").Observe(100)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"a.count": 2`, `"b.level": 9`, `"c.lat"`, `"count": 1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}

// TestBatch covers the one path simulator counts take into a registry:
// plain fields bound once, flushed as deltas, rebased after the owner
// zeroes them.
func TestBatch(t *testing.T) {
	var stats struct {
		hits uint64
		busy clock.Duration
	}
	stats.hits = 5 // counted before Bind: never reaches the registry
	reg := NewRegistry()
	var b Batch
	b.Bind(reg, "c.hits", &stats.hits)
	b.Bind(reg, "c.busy_ps", (*uint64)(&stats.busy))

	stats.hits += 2
	stats.busy += 3 * clock.Nanosecond
	if got := reg.CounterValue("c.hits"); got != 0 {
		t.Fatalf("c.hits = %d before Flush, want 0", got)
	}
	b.Flush()
	b.Flush() // nothing new: must not double-count
	if h, d := reg.CounterValue("c.hits"), reg.CounterValue("c.busy_ps"); h != 2 || d != 3000 {
		t.Fatalf("after Flush: c.hits = %d, c.busy_ps = %d, want 2 and 3000", h, d)
	}

	// The owner resets its fields and the registry, then rebases: counting
	// resumes from zero without reading the reset as growth.
	stats.hits, stats.busy = 0, 0
	reg.Reset()
	b.Rebase()
	stats.hits++
	b.Flush()
	if h, d := reg.CounterValue("c.hits"), reg.CounterValue("c.busy_ps"); h != 1 || d != 0 {
		t.Fatalf("after Rebase: c.hits = %d, c.busy_ps = %d, want 1 and 0", h, d)
	}

	// A nil registry binds nothing, so flushing it touches no counter.
	var off Batch
	off.Bind(nil, "c.hits", &stats.hits)
	stats.hits++
	off.Flush()
	off.Rebase()
	if got := reg.CounterValue("c.hits"); got != 1 {
		t.Fatalf("unbound batch moved c.hits to %d", got)
	}
}
