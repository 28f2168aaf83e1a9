package clock

import (
	"testing"
	"testing/quick"
)

func TestTimeAddSub(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d, want 150", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d, want 50", d)
	}
}

func TestTimeSubNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub with later argument did not panic")
		}
	}()
	Time(10).Sub(Time(20))
}

func TestTimeOrdering(t *testing.T) {
	if !Time(1).Before(Time(2)) {
		t.Error("1 should be before 2")
	}
	if Time(2).Before(Time(2)) {
		t.Error("2 should not be before itself")
	}
	if !Time(3).After(Time(2)) {
		t.Error("3 should be after 2")
	}
	if Max(Time(3), Time(5)) != 5 {
		t.Error("Max(3,5) != 5")
	}
	if Min(Time(3), Time(5)) != 3 {
		t.Error("Min(3,5) != 3")
	}
}

func TestDurationUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", uint64(Second))
	}
	d := 1500 * Nanosecond
	if got := d.Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds: got %v, want 1.5", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", uint64(c.d), got, c.want)
		}
	}
}

func TestDomainCPU(t *testing.T) {
	cpu := NewDomain("cpu", 3500)
	// 3.5 GHz: 7 cycles take exactly 2000 ps.
	if d := cpu.CyclesToDuration(7); d != 2000 {
		t.Fatalf("7 CPU cycles = %d ps, want 2000", uint64(d))
	}
	if c := cpu.DurationToCycles(2000); c != 7 {
		t.Fatalf("2000 ps = %d CPU cycles, want 7", c)
	}
	if got := cpu.FreqMHz(); got != 3500 {
		t.Fatalf("FreqMHz = %v", got)
	}
}

func TestDomainGPU(t *testing.T) {
	gpu := NewDomain("gpu", 1500)
	// 1.5 GHz: 3 cycles take exactly 2000 ps.
	if d := gpu.CyclesToDuration(3); d != 2000 {
		t.Fatalf("3 GPU cycles = %d ps, want 2000", uint64(d))
	}
	// Rounding up: 1 ps must cost at least 1 cycle.
	if c := gpu.DurationToCycles(1); c != 1 {
		t.Fatalf("1 ps = %d GPU cycles, want 1", c)
	}
}

func TestDomainCyclesAt(t *testing.T) {
	cpu := NewDomain("cpu", 1000) // 1 GHz: 1 cycle = 1000 ps
	if c := cpu.CyclesAt(Time(5500)); c != 5 {
		t.Fatalf("CyclesAt(5500) = %d, want 5", c)
	}
}

func TestDomainZeroFreqPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero frequency did not panic")
		}
	}()
	NewDomain("bad", 0)
}

func TestDomainRoundTripProperty(t *testing.T) {
	cpu := NewDomain("cpu", 3500)
	// DurationToCycles rounds up, so converting cycles->duration->cycles
	// must return at least the original count, and the duration of that
	// count must not be shorter than the original duration.
	f := func(n uint32) bool {
		cycles := uint64(n)
		d := cpu.CyclesToDuration(cycles)
		back := cpu.DurationToCycles(d)
		return back >= cycles && cpu.CyclesToDuration(back) >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerialisation(t *testing.T) {
	r := new(Resource)
	s1, f1 := r.Acquire(0, 100)
	if s1 != 0 || f1 != 100 {
		t.Fatalf("first acquire: start=%v free=%v", s1, f1)
	}
	// A request arriving at 50 while the bus is busy until 100 starts at 100.
	s2, f2 := r.Acquire(50, 100)
	if s2 != 100 || f2 != 200 {
		t.Fatalf("second acquire: start=%v free=%v, want 100/200", s2, f2)
	}
	// A request arriving after the bus freed starts immediately.
	s3, _ := r.Acquire(500, 10)
	if s3 != 500 {
		t.Fatalf("third acquire start=%v, want 500", s3)
	}
	if r.FreeAt() != 510 {
		t.Fatalf("free at %v, want 510", r.FreeAt())
	}
}

func TestResourceMonotonicProperty(t *testing.T) {
	// For any sequence of acquires with nondecreasing arrival times, start
	// times must be nondecreasing and every start >= its arrival.
	f := func(arrivalDeltas []uint16, occupancies []uint16) bool {
		r := new(Resource)
		var at Time
		var lastStart Time
		n := len(arrivalDeltas)
		if len(occupancies) < n {
			n = len(occupancies)
		}
		for i := 0; i < n; i++ {
			at = at.Add(Duration(arrivalDeltas[i]))
			start, free := r.Acquire(at, Duration(occupancies[i]))
			if start < at || start < lastStart || free != start.Add(Duration(occupancies[i])) {
				return false
			}
			lastStart = start
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
