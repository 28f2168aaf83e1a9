package cache

import (
	"heteromem/internal/arena"
	"heteromem/internal/clock"
)

// MSHR models a file of miss-status holding registers. Concurrent misses
// to the same line merge onto one outstanding entry (a secondary miss
// completes when the primary's fill arrives); when every register is
// occupied, a new primary miss must wait until the earliest outstanding
// fill returns.
//
// The file is a pair of parallel slices rather than a map: real files
// are a handful of registers (Table II uses 16 per PU), so the linear
// scan beats hashing and, more importantly, expiry is an in-place
// compaction instead of a map iteration — the file sits on the miss
// path of every access.
type MSHR struct {
	capacity int
	// arena backs the registers, including an uncapped file's growth.
	arena  *arena.Arena
	lines  []uint64
	readys []clock.Time // fill-complete time, parallel to lines
	// minReady is the earliest outstanding fill time (zero when the
	// file is empty), so expire only walks the file when an entry can
	// actually retire instead of on every access.
	minReady clock.Time
}

// NewMSHR returns an MSHR file with the given number of registers.
// Capacity zero or negative disables the structure (unlimited, no
// merging), useful for idealised configurations.
func NewMSHR(capacity int) *MSHR {
	return NewMSHRIn(nil, capacity)
}

// NewMSHRIn is NewMSHR with the register file's parallel arrays carved
// from the arena (nil falls back to the heap). An uncapped file (capacity
// <= 0) that outgrows its initial registers grows from the arena too, so
// the file must run on the goroutine that owns the arena, and the arena
// may be Reset only once the file is dropped.
func NewMSHRIn(a *arena.Arena, capacity int) *MSHR {
	n := capacity
	if n <= 0 {
		n = 16
	}
	return &MSHR{
		capacity: capacity,
		arena:    a,
		lines:    arena.Make[uint64](a, n)[:0],
		readys:   arena.Make[clock.Time](a, n)[:0],
	}
}

// expire drops entries whose fills have completed by now, compacting in
// place. The walk is skipped entirely unless the earliest outstanding
// fill has retired, which is behaviour-identical: an un-expired stale
// entry can neither satisfy Outstanding (its ready time is not in the
// future) nor exist when minReady is still ahead of now.
func (m *MSHR) expire(now clock.Time) {
	if len(m.lines) == 0 || m.minReady > now {
		return
	}
	min := clock.Time(0)
	k := 0
	for i, ready := range m.readys {
		if ready <= now {
			continue
		}
		m.lines[k], m.readys[k] = m.lines[i], ready
		k++
		if min == 0 || ready < min {
			min = ready
		}
	}
	m.lines, m.readys = m.lines[:k], m.readys[:k]
	m.minReady = min
}

// find returns the index of line in the file, or -1.
func (m *MSHR) find(line uint64) int {
	for i, l := range m.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// Outstanding reports whether a miss to line is already in flight at now,
// and if so when its fill completes. A true return means the new miss
// merges: it finishes at the returned time without issuing a new request.
func (m *MSHR) Outstanding(line uint64, now clock.Time) (clock.Time, bool) {
	m.expire(now)
	if i := m.find(line); i >= 0 && m.readys[i] > now {
		return m.readys[i], true
	}
	return 0, false
}

// Allocate records a primary miss to line completing at ready. If the
// file is full at now, the allocation is delayed until the earliest
// outstanding entry retires; the returned time is the (possibly pushed
// back) completion time the caller must use.
func (m *MSHR) Allocate(line uint64, now, ready clock.Time) clock.Time {
	m.expire(now)
	if m.capacity > 0 && len(m.lines) >= m.capacity {
		earliest := clock.Time(0)
		first := true
		for _, r := range m.readys {
			if first || r < earliest {
				earliest = r
				first = false
			}
		}
		// The request cannot even be registered until a register frees;
		// push the completion back by the wait.
		if earliest > now {
			ready = ready.Add(earliest.Sub(now))
		}
		m.expire(earliest)
	}
	if i := m.find(line); i >= 0 {
		m.readys[i] = ready
	} else {
		if n := len(m.lines); n == cap(m.lines) {
			// Only an uncapped file gets here: a capped one expired an
			// entry above.
			m.lines = arena.Grow(m.arena, m.lines, n+1)[:n]
			m.readys = arena.Grow(m.arena, m.readys, n+1)[:n]
		}
		m.lines = append(m.lines, line)
		m.readys = append(m.readys, ready)
	}
	if len(m.lines) == 1 || ready < m.minReady {
		m.minReady = ready
	}
	return ready
}

// InFlight returns the number of outstanding entries at now.
func (m *MSHR) InFlight(now clock.Time) int {
	m.expire(now)
	return len(m.lines)
}
