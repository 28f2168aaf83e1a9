package clock

// Resource models a pipelined hardware resource with an occupancy
// constraint using busy-until bookkeeping: each request reserves the
// resource for a given duration, and a request arriving while the
// resource is busy is delayed until it frees up.
//
// This is the standard trace-driven-simulator compromise between a fixed
// latency (no contention at all) and a full micro-event model: it
// serialises conflicting requests exactly, costs O(1) per request, and is
// deterministic. The zero Resource is idle at time zero.
type Resource struct {
	busyUntil Time
}

// Acquire reserves the resource for occupancy starting no earlier than
// at. It returns the time the request actually starts (>= at) and the
// time the resource becomes free again. The caller's request completes at
// start plus its own latency, which may be longer than the occupancy
// (e.g. a bus transfer occupies the bus for the transfer time but the
// data arrives after an additional propagation delay).
func (r *Resource) Acquire(at Time, occupancy Duration) (start, free Time) {
	start = Max(at, r.busyUntil)
	free = start.Add(occupancy)
	r.busyUntil = free
	return start, free
}

// FreeAt returns the earliest time a new request could start.
func (r *Resource) FreeAt() Time { return r.busyUntil }
