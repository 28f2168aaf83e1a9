package noc

import (
	"testing"
	"testing/quick"

	"heteromem/internal/arena"
	"heteromem/internal/clock"
)

func testConfig(stops int) Config {
	return Config{
		Stops:             stops,
		HopLatency:        2 * clock.Nanosecond,
		LinkBytesPerCycle: 32,
		CycleTime:         1 * clock.Nanosecond,
	}
}

func testRing(t *testing.T, stops int) *Ring {
	t.Helper()
	r, err := New(testConfig(stops))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Stops: 1, HopLatency: 1, LinkBytesPerCycle: 32, CycleTime: 1},
		{Stops: 4, HopLatency: 0, LinkBytesPerCycle: 32, CycleTime: 1},
		{Stops: 4, HopLatency: 1, LinkBytesPerCycle: 0, CycleTime: 1},
		{Stops: 4, HopLatency: 1, LinkBytesPerCycle: 32, CycleTime: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHopsShorterDirection(t *testing.T) {
	r := testRing(t, 8)
	cases := []struct{ from, to, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {0, 5, 3}, {0, 7, 1}, {6, 1, 3},
	}
	for _, c := range cases {
		if got := r.Hops(c.from, c.to); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestSendLatencyComposition(t *testing.T) {
	r := testRing(t, 8)
	// 64-byte message over 2 hops: 2*2ns header + 2ns serialisation = 6ns.
	got := r.Send(0, 2, 64, 0)
	if got != clock.Time(6*clock.Nanosecond) {
		t.Fatalf("arrival %v, want 6ns", got)
	}
}

func TestSendSameStop(t *testing.T) {
	r := testRing(t, 8)
	if got := r.Send(3, 3, 1024, 100); got != 100 {
		t.Fatalf("self-send arrival %v, want 100ps", got)
	}
}

func TestSendZeroBytesControlFlit(t *testing.T) {
	r := testRing(t, 8)
	got := r.Send(0, 1, 0, 0)
	// 1 hop * 2ns + 1 flit cycle = 3ns.
	if got != clock.Time(3*clock.Nanosecond) {
		t.Fatalf("control flit arrival %v, want 3ns", got)
	}
}

func TestLinkContention(t *testing.T) {
	r := testRing(t, 8)
	// Two simultaneous messages over the same first link serialise.
	a := r.Send(0, 1, 3200, 0) // 100 cycles of serialisation
	b := r.Send(0, 1, 3200, 0)
	if b <= a {
		t.Fatalf("contending messages did not serialise: %v then %v", a, b)
	}
	// A message on the opposite side of the ring is unaffected.
	c := testRing(t, 8).Send(4, 5, 64, 0)
	d := r.Send(4, 5, 64, 0)
	if c != d {
		t.Fatalf("disjoint links interfered: %v vs %v", c, d)
	}
}

func TestCounterClockwiseRoute(t *testing.T) {
	r := testRing(t, 8)
	// 0 -> 7 goes counter-clockwise over one link.
	got := r.Send(0, 7, 64, 0)
	want := clock.Time(2*clock.Nanosecond + 2*clock.Nanosecond)
	if got != want {
		t.Fatalf("ccw arrival %v, want %v", got, want)
	}
	if r.Stats().TotalHops != 1 {
		t.Fatalf("hops = %d, want 1", r.Stats().TotalHops)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	r := testRing(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range stop did not panic")
		}
	}()
	r.Send(0, 9, 64, 0)
}

// TestStatsAndReset counts traffic, then rebuilds the ring on its
// rewound arena: the carved links come back idle and the stats zero, so
// a message on the rebuilt ring arrives as on a new one.
func TestStatsAndReset(t *testing.T) {
	a := arena.New()
	r, err := NewIn(a, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	r.Send(0, 2, 64, 0)
	r.Send(2, 0, 128, 0)
	st := r.Stats()
	if st.Messages != 2 || st.Bytes != 192 || st.TotalHops != 4 {
		t.Fatalf("stats %+v", st)
	}
	a.Reset()
	if r, err = NewIn(a, testConfig(8)); err != nil {
		t.Fatal(err)
	}
	if r.Stats() != (Stats{}) {
		t.Fatal("rebuilt ring kept stats")
	}
	if got, want := r.Send(0, 2, 64, 0), testRing(t, 8).Send(0, 2, 64, 0); got != want {
		t.Fatalf("message on the rebuilt ring arrived at %v, on a new ring %v", got, want)
	}
}

// Property: arrival is monotone in distance — for messages sent on an
// idle ring, more hops never arrive earlier — and always after now.
func TestArrivalMonotoneProperty(t *testing.T) {
	f := func(fromRaw, bytesRaw uint16) bool {
		stops := 8
		from := int(fromRaw) % stops
		bytes := int(bytesRaw) % 4096
		var prev clock.Time
		for d := 0; d <= stops/2; d++ {
			r := MustNew(Config{Stops: stops, HopLatency: 2 * clock.Nanosecond, LinkBytesPerCycle: 32, CycleTime: clock.Nanosecond})
			to := (from + d) % stops
			got := r.Send(from, to, bytes, 0)
			if d > 0 && got < prev {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSend(b *testing.B) {
	r := MustNew(Config{Stops: 8, HopLatency: 2 * clock.Nanosecond, LinkBytesPerCycle: 32, CycleTime: clock.Nanosecond})
	var now clock.Time
	for i := 0; i < b.N; i++ {
		now = r.Send(i%8, (i+3)%8, 64, now)
	}
}
