// Package clock provides the simulated-time substrate for the
// heterogeneous-computing simulator: a picosecond-resolution timeline,
// frequency domains that convert between cycles and absolute time, and
// contended resources that serialise requests.
//
// The paper's baseline (Table II) clocks the CPU at 3.5 GHz and the GPU at
// 1.5 GHz. Because the two processing units run in different frequency
// domains, the simulator keeps all global timestamps in picoseconds and
// lets each component translate to and from its own cycle count. One CPU
// cycle at 3.5 GHz is 285.714... ps; to stay exact with integer
// arithmetic, domains store frequency in kHz and convert with 64-bit
// multiply/divide in a fixed order so the same inputs always produce the
// same timestamps.
package clock

import "fmt"

// Time is an absolute simulated timestamp in picoseconds since the start
// of simulation. The zero value is the beginning of time.
type Time uint64

// Duration is a span of simulated time in picoseconds.
type Duration uint64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t. It panics if u is after t, which
// always indicates a scheduling bug in the caller.
func (t Time) Sub(u Time) Duration {
	if u > t {
		panic(fmt.Sprintf("clock: negative duration: %d - %d", t, u))
	}
	return Duration(t - u)
}

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of t and u.
func Max(t, u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Min returns the earlier of t and u.
func Min(t, u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Nanoseconds returns the duration as a floating-point nanosecond count,
// for reporting.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a floating-point microsecond count.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Milliseconds returns the duration as a floating-point millisecond count.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", d.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", uint64(d))
	}
}

func (t Time) String() string { return Duration(t).String() }
