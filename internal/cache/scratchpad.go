package cache

import "fmt"

// Scratchpad models a software-managed cache (the GPU's 16 KB
// software-managed cache in Table II). Unlike a hardware cache it has no
// tags or replacement: software explicitly places and removes ranges, a
// lookup either finds the data (fixed latency) or it is a program error
// that the core model charges as a miss to the hierarchy.
type Scratchpad struct {
	name     string
	capacity uint64
	used     uint64
	ranges   map[uint64]uint64 // base -> size
}

// NewScratchpad returns an empty scratchpad with the given capacity in
// bytes.
func NewScratchpad(name string, capacity uint64) *Scratchpad {
	return &Scratchpad{name: name, capacity: capacity, ranges: make(map[uint64]uint64)}
}

// Capacity returns the total capacity in bytes.
func (s *Scratchpad) Capacity() uint64 { return s.capacity }

// Used returns the bytes currently allocated.
func (s *Scratchpad) Used() uint64 { return s.used }

// Place allocates [base, base+size) in the scratchpad. It fails when the
// range would exceed capacity; software (the trace generator) is
// responsible for eviction, mirroring real software-managed caches.
func (s *Scratchpad) Place(base, size uint64) error {
	if old, ok := s.ranges[base]; ok {
		if old >= size {
			return nil // already resident
		}
		s.used -= old
		delete(s.ranges, base)
	}
	if s.used+size > s.capacity {
		return fmt.Errorf("scratchpad %s: placing %d bytes exceeds capacity (%d/%d used)",
			s.name, size, s.used, s.capacity)
	}
	s.ranges[base] = size
	s.used += size
	return nil
}

// Resident reports whether addr falls inside any placed range.
func (s *Scratchpad) Resident(addr uint64) bool {
	for base, size := range s.ranges {
		if addr >= base && addr < base+size {
			return true
		}
	}
	return false
}

// Clear frees every range.
func (s *Scratchpad) Clear() {
	s.ranges = make(map[uint64]uint64)
	s.used = 0
}
