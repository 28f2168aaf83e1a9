// Package obs is the simulator-wide observability layer: a metrics
// registry of named counters, gauges and log-scaled latency histograms, an
// interval sampler that turns the registry into a per-epoch time series,
// and a Chrome-trace-event tracer whose output opens directly in
// Perfetto / chrome://tracing.
//
// The package is deliberately dependency-free (standard library only) so
// every substrate package — cpu, gpu, mem, cache, dram, noc, comm,
// addrspace — can import it without cycles. Timestamps are plain uint64
// picosecond counts, the same unit as clock.Time; callers convert with a
// uint64() cast.
//
// Every metric type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Sampler or *Tracer are no-ops, and a nil *Registry hands
// out nil metrics.
//
// Simulator components never bump a Counter per event. They count in
// plain uint64 fields of their own statistics, and a Batch carries the
// growth of those fields into registry counters when the simulator
// flushes (before every interval sample and at run end). The hot path
// therefore costs the same with observability on or off: one integer
// increment per event.
//
// Metrics within one Registry are not synchronised: a registry belongs to
// one simulator instance and is bumped from that simulator's goroutine
// only. Concurrent sweeps (harness.RunCaseStudies) give each cell its own
// simulator and hence its own registry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Counter is a monotonically increasing metric (events, bytes, hits).
type Counter struct {
	name string
	v    uint64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count; zero on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name; empty on a nil counter.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a point-in-time level (outstanding misses, bytes in flight).
type Gauge struct {
	name string
	v    uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current level; zero on a nil gauge.
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Name returns the registered name; empty on a nil gauge.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds observations v with bits.Len64(v) == i, i.e. bucket 0 is v == 0
// and bucket i >= 1 covers [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log2-bucketed distribution, sized for picosecond
// latencies: 65 buckets cover the full uint64 range with one branch-free
// index computation per observation.
type Histogram struct {
	name    string
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
}

// Observe records v. No-op on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations; zero on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations; zero on a nil histogram.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Name returns the registered name; empty on a nil histogram.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// HistAccum is a plain histogram accumulator for hot-path batching:
// replay code observes into a HistAccum held in an ordinary struct (no
// registry indirection) and folds the accumulated buckets into a
// registered Histogram at phase boundaries with Histogram.Merge. The
// zero value is ready to use.
type HistAccum struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
}

// Observe records v.
func (a *HistAccum) Observe(v uint64) {
	a.buckets[bits.Len64(v)]++
	a.count++
	a.sum += v
}

// Count returns the number of accumulated observations.
func (a *HistAccum) Count() uint64 { return a.count }

// Sum returns the total of the accumulated observations.
func (a *HistAccum) Sum() uint64 { return a.sum }

// Reset clears the accumulator.
func (a *HistAccum) Reset() { *a = HistAccum{} }

// Merge folds an accumulator's observations into the histogram and
// resets the accumulator, so repeated flushes never double-count. On a
// nil histogram the observations are discarded (the accumulator is
// still cleared).
func (h *Histogram) Merge(a *HistAccum) {
	if h != nil {
		for i, n := range a.buckets {
			h.buckets[i] += n
		}
		h.count += a.count
		h.sum += a.sum
	}
	a.Reset()
}

// Batch carries counts a component keeps in plain uint64 fields into
// registry counters. Bind ties a counter to a field; Flush adds each
// field's growth since the previous Flush to its counter. The zero value
// is an empty batch, and a component's owner re-instruments it by
// replacing the batch with a fresh one.
type Batch struct {
	binds []binding
}

type binding struct {
	src  *uint64
	last uint64
	dst  *Counter
}

// Bind registers the named counter with reg and ties it to *src, taking
// the field's current value as the baseline, so a freshly attached
// registry observes only later events. A nil registry binds nothing.
func (b *Batch) Bind(reg *Registry, name string, src *uint64) {
	if reg == nil {
		return
	}
	b.binds = append(b.binds, binding{src: src, last: *src, dst: reg.Counter(name)})
}

// Flush adds every bound field's growth since the previous Flush (or
// Rebase, or Bind) to its counter.
func (b *Batch) Flush() {
	for i := range b.binds {
		x := &b.binds[i]
		v := *x.src
		x.dst.v += v - x.last
		x.last = v
	}
}

// Rebase takes the bound fields' current values as the baseline without
// touching the counters. An owner calls it after zeroing the fields it
// bound, so the reset does not read as growth at the next Flush; counts
// not flushed before the reset are dropped.
func (b *Batch) Rebase() {
	for i := range b.binds {
		b.binds[i].last = *b.binds[i].src
	}
}

// Bucket is one non-empty histogram bucket: Count observations fell in
// [Lo, Hi).
type Bucket struct {
	Lo, Hi uint64
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			if i < 64 {
				b.Hi = 1 << i
			} else {
				b.Hi = ^uint64(0)
			}
		} else {
			b.Hi = 1
		}
		out = append(out, b)
	}
	return out
}

// Registry is a named collection of metrics. Registration is idempotent:
// asking for an existing name returns the existing instrument, so two
// components may safely share a metric. Asking a name already registered
// as a different metric kind panics — that is always a wiring bug.
type Registry struct {
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
	index      map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]interface{})}
}

// Counter registers (or looks up) the named counter. A nil registry
// returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m, ok := r.index[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T, not a counter", name, m))
		}
		return c
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	r.index[name] = c
	return c
}

// Gauge registers (or looks up) the named gauge. A nil registry returns a
// nil gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m, ok := r.index[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T, not a gauge", name, m))
		}
		return g
	}
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	r.index[name] = g
	return g
}

// Histogram registers (or looks up) the named histogram. A nil registry
// returns a nil histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if m, ok := r.index[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T, not a histogram", name, m))
		}
		return h
	}
	h := &Histogram{name: name}
	r.histograms = append(r.histograms, h)
	r.index[name] = h
	return h
}

// Reset zeroes every registered metric's value, keeping the instruments
// themselves (and every pointer components hold to them) intact. No-op
// on a nil registry. Used when a simulator is recycled between runs.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, h := range r.histograms {
		h.buckets = [histBuckets]uint64{}
		h.count = 0
		h.sum = 0
	}
}

// LookupCounter returns the named counter if registered.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	if r == nil {
		return nil, false
	}
	c, ok := r.index[name].(*Counter)
	return c, ok
}

// CounterValue returns the named counter's value, or 0 if unregistered.
func (r *Registry) CounterValue(name string) uint64 {
	c, _ := r.LookupCounter(name)
	return c.Value()
}

// Counters returns every registered counter in registration order.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	return r.counters
}

// Gauges returns every registered gauge in registration order.
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	return r.gauges
}

// Histograms returns every registered histogram in registration order.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return r.histograms
}

// HistogramSnapshot is the exported form of one histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric, ready for JSON
// export. Map keys serialise in sorted order, so output is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	if r == nil {
		return s
	}
	for _, c := range r.counters {
		s.Counters[c.name] = c.v
	}
	if len(r.gauges) > 0 {
		s.Gauges = map[string]uint64{}
		for _, g := range r.gauges {
			s.Gauges[g.name] = g.v
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = map[string]HistogramSnapshot{}
		for _, h := range r.histograms {
			s.Histograms[h.name] = HistogramSnapshot{
				Count: h.count, Sum: h.sum, Mean: h.Mean(), Buckets: h.Buckets(),
			}
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
