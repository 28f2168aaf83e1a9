package obs

import (
	"testing"
	"time"
)

func TestHostProfSampleCadence(t *testing.T) {
	p := NewHostProf(64)
	hits := 0
	for i := 0; i < 640; i++ {
		if p.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Errorf("640 ticks at every=64 sampled %d, want 10", hits)
	}
	if NewHostProf(0).Every() != 1 {
		t.Error("every<1 should clamp to 1 (time everything)")
	}
}

func TestHostProfSectionsAndFlush(t *testing.T) {
	p := NewHostProf(1)
	p.clockNS = 0 // exact sums: no clock-read deduction
	a := p.Section("memsys.private")
	b := p.Section("memsys.l3")
	if again := p.Section("memsys.private"); again != a {
		t.Errorf("re-registration returned %d, want %d", again, a)
	}
	p.Add(a, 100*time.Nanosecond)
	p.Add(a, 50*time.Nanosecond)
	p.Add(b, 10*time.Nanosecond)
	if got := p.SectionNS("memsys.private"); got != 150 {
		t.Errorf("private ns = %d, want 150", got)
	}

	reg := NewRegistry()
	p.FlushTo(reg)
	if v := reg.CounterValue("host.memsys.private.ns"); v != 150 {
		t.Errorf("flushed private ns = %d, want 150", v)
	}
	if v := reg.CounterValue("host.memsys.private.samples"); v != 2 {
		t.Errorf("flushed private samples = %d, want 2", v)
	}
	if v := reg.CounterValue("host.memsys.l3.ns"); v != 10 {
		t.Errorf("flushed l3 ns = %d, want 10", v)
	}

	// A second flush with no new activity adds nothing; with activity it
	// adds only the delta.
	p.FlushTo(reg)
	if v := reg.CounterValue("host.memsys.private.ns"); v != 150 {
		t.Errorf("idempotent flush changed ns to %d", v)
	}
	p.Add(a, 25*time.Nanosecond)
	p.FlushTo(reg)
	if v := reg.CounterValue("host.memsys.private.ns"); v != 175 {
		t.Errorf("delta flush ns = %d, want 175", v)
	}

	// Registry reset + continued profiling: counters restart from zero
	// and receive only post-reset deltas (the per-cell pattern).
	reg.Reset()
	p.Add(a, 5*time.Nanosecond)
	p.FlushTo(reg)
	if v := reg.CounterValue("host.memsys.private.ns"); v != 5 {
		t.Errorf("post-reset flush ns = %d, want 5", v)
	}
}

// An interval timing an empty body measures only the clock read that
// ends it, and Add deducts that, so such a section reads close to 0 ns
// per sample. A run preempted by the host is retried.
func TestHostProfEmptySectionNearZero(t *testing.T) {
	const n = 10_000
	var raw, perSample time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		p := NewHostProf(1)
		id := p.Section("empty")
		var sum time.Duration
		t0 := time.Now()
		for i := 0; i < n; i++ {
			now := time.Now()
			sum += now.Sub(t0)
			p.Add(id, now.Sub(t0))
			t0 = now
		}
		raw, perSample = sum/n, time.Duration(p.SectionNS("empty")/n)
		if perSample <= max(2*time.Nanosecond, raw/4) {
			t.Logf("empty section: %v per sample after deduction, %v before", perSample, raw)
			return
		}
	}
	t.Errorf("empty section: %v per sample after deduction, %v before", perSample, raw)
}

func TestHostProfAddClampsAtZero(t *testing.T) {
	p := NewHostProf(1)
	p.clockNS = 50 * time.Nanosecond
	id := p.Section("x")
	p.Add(id, 20*time.Nanosecond)
	p.Add(id, 80*time.Nanosecond)
	if got := p.SectionNS("x"); got != 30 {
		t.Errorf("ns = %d, want 30 (20 clamps to 0, 80 less 50)", got)
	}
}

func TestHostProfReset(t *testing.T) {
	p := NewHostProf(4)
	id := p.Section("x")
	p.Add(id, time.Microsecond)
	p.Sample()
	p.Reset()
	if p.SectionNS("x") != 0 {
		t.Error("Reset should clear accumulated ns")
	}
	if again := p.Section("x"); again != id {
		t.Error("Reset should keep registered sections")
	}
	reg := NewRegistry()
	p.FlushTo(reg)
	if v := reg.CounterValue("host.x.ns"); v != 0 {
		t.Errorf("flush after reset wrote %d", v)
	}
}

func TestHostProfNilSafety(t *testing.T) {
	var p *HostProf
	if p.Sample() {
		t.Error("nil Sample should be false")
	}
	if p.Section("x") != -1 {
		t.Error("nil Section should be -1")
	}
	p.Add(0, time.Second) // must not panic
	p.Add(-1, time.Second)
	p.FlushTo(NewRegistry())
	p.Reset()
	if p.Every() != 0 {
		t.Error("nil Every should be 0")
	}
	if p.SectionNS("x") != 0 {
		t.Error("nil SectionNS should be 0")
	}
}
