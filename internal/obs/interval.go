package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one epoch of the interval time series: counter deltas and
// gauge levels over [StartPS, EndPS) of simulated time.
type Sample struct {
	Epoch   int               `json:"epoch"`
	StartPS uint64            `json:"start_ps"`
	EndPS   uint64            `json:"end_ps"`
	Deltas  map[string]uint64 `json:"deltas"`
	Gauges  map[string]uint64 `json:"gauges,omitempty"`
}

// DT returns the epoch length in picoseconds.
func (s Sample) DT() uint64 { return s.EndPS - s.StartPS }

// Delta returns the named counter's delta over the epoch (0 if absent).
func (s Sample) Delta(name string) uint64 { return s.Deltas[name] }

// DerivedColumn computes a per-epoch value (IPC, miss rate, bandwidth)
// from the raw deltas of that epoch.
type DerivedColumn struct {
	Name string
	F    func(Sample) float64
}

// Sampler snapshots a registry's counters at fixed simulated-time
// boundaries, building a per-epoch delta time series. The simulator calls
// Advance whenever its clock moves and Finish once at the end of the run;
// deltas accumulated between two Advance calls are attributed to the
// first epoch boundary crossed, and the Finish epoch absorbs the tail, so
// the column sums always equal the final counter values exactly.
type Sampler struct {
	reg      *Registry
	interval uint64
	start    uint64 // current epoch's start
	next     uint64 // current epoch's end boundary
	prev     map[string]uint64
	samples  []Sample
	derived  []DerivedColumn
	finished bool
}

// NewSampler returns a sampler over reg with the given epoch length in
// picoseconds. Panics if intervalPS is zero.
func NewSampler(reg *Registry, intervalPS uint64) *Sampler {
	if intervalPS == 0 {
		panic("obs: zero sampling interval")
	}
	return &Sampler{
		reg:      reg,
		interval: intervalPS,
		next:     intervalPS,
		prev:     make(map[string]uint64),
	}
}

// AddDerived registers a derived per-epoch column, appended after the raw
// counter columns in CSV output. Registering a name again replaces the
// earlier function, so a sampler shared by pooled simulators keeps one
// column per name. No-op on a nil sampler.
func (s *Sampler) AddDerived(name string, f func(Sample) float64) {
	if s == nil {
		return
	}
	for i := range s.derived {
		if s.derived[i].Name == name {
			s.derived[i].F = f
			return
		}
	}
	s.derived = append(s.derived, DerivedColumn{Name: name, F: f})
}

// Advance moves simulated time forward to nowPS, emitting one sample per
// epoch boundary crossed. Counter activity since the previous call is
// attributed to the first epoch emitted. No-op on a nil sampler or when
// nowPS has not reached the next boundary.
func (s *Sampler) Advance(nowPS uint64) {
	if s == nil || s.finished {
		return
	}
	for nowPS >= s.next {
		s.emit(s.start, s.next)
		s.start = s.next
		s.next += s.interval
	}
}

// Finish emits the final (possibly partial) epoch ending at endPS,
// capturing all counter activity not yet attributed. After Finish the
// sampler ignores further Advance calls. No-op on a nil sampler.
func (s *Sampler) Finish(endPS uint64) {
	if s == nil || s.finished {
		return
	}
	s.Advance(endPS)
	if endPS > s.start || s.dirty() {
		end := endPS
		if end < s.start {
			end = s.start
		}
		s.emit(s.start, end)
	}
	s.finished = true
}

// dirty reports whether any counter moved since the last emitted sample.
func (s *Sampler) dirty() bool {
	for _, c := range s.reg.Counters() {
		if c.v != s.prev[c.name] {
			return true
		}
	}
	return false
}

func (s *Sampler) emit(start, end uint64) {
	sm := Sample{
		Epoch:   len(s.samples),
		StartPS: start,
		EndPS:   end,
		Deltas:  make(map[string]uint64),
	}
	for _, c := range s.reg.Counters() {
		sm.Deltas[c.name] = c.v - s.prev[c.name]
		s.prev[c.name] = c.v
	}
	if gs := s.reg.Gauges(); len(gs) > 0 {
		sm.Gauges = make(map[string]uint64)
		for _, g := range gs {
			sm.Gauges[g.name] = g.v
		}
	}
	s.samples = append(s.samples, sm)
}

// Reset returns the sampler to its just-constructed state — no emitted
// samples, the first epoch starting at 0 — keeping the interval and the
// derived columns. Call it together with the registry's Reset when a
// pooled simulator is recycled between runs: the sampler's notion of
// "previous counter value" is cleared with it, so post-reset deltas
// still sum exactly to the post-reset totals. No-op on a nil sampler.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.start = 0
	s.next = s.interval
	s.samples = nil // emitted samples may be retained by callers
	for k := range s.prev {
		delete(s.prev, k)
	}
	s.finished = false
}

// Samples returns the emitted time series.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// columns returns the CSV column names after the three epoch columns:
// counters and gauges in registration order, then derived columns.
func (s *Sampler) columns() (counters, gauges []string) {
	for _, c := range s.reg.Counters() {
		counters = append(counters, c.name)
	}
	for _, g := range s.reg.Gauges() {
		gauges = append(gauges, g.name)
	}
	return counters, gauges
}

// WriteCSV writes the time series as CSV: one row per epoch, columns
// epoch, start_ps, end_ps, one delta column per counter, one level column
// per gauge, then the derived columns.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	counters, gauges := s.columns()
	var b strings.Builder
	b.WriteString("epoch,start_ps,end_ps")
	for _, name := range counters {
		b.WriteByte(',')
		b.WriteString(name)
	}
	for _, name := range gauges {
		b.WriteByte(',')
		b.WriteString(name)
	}
	for _, d := range s.derived {
		b.WriteByte(',')
		b.WriteString(d.Name)
	}
	b.WriteByte('\n')
	for _, sm := range s.samples {
		b.WriteString(strconv.Itoa(sm.Epoch))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(sm.StartPS, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(sm.EndPS, 10))
		for _, name := range counters {
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(sm.Deltas[name], 10))
		}
		for _, name := range gauges {
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(sm.Gauges[name], 10))
		}
		for _, d := range s.derived {
			b.WriteByte(',')
			fmt.Fprintf(&b, "%g", d.F(sm))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON writes the time series as an indented JSON array of samples.
func (s *Sampler) WriteJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.samples)
}
