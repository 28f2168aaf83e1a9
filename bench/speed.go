package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed wanders: for
// seconds to minutes at a time every cell of a pass runs up to 1.6 times
// slower, with no steal time and the process on the CPU throughout, so
// neither CPU time nor the fastest pass escapes it. The benchmark
// therefore times a fixed probe between its measured stretches and
// scales each stretch by how fast the probe ran around it: a reported
// time is the time the stretch would have taken at the probe's reference
// speed. The probe is a JSON round trip of fixed records, code of the
// standard library that the program never changes. Of the probes tried
// on the 2-vCPU host README.md describes, it slowed in the same
// proportion as the simulator (log-log slope 1.04, correlation 0.96):
// cache-model, pointer-chasing, sorting and compression loops slowed
// only 0.4 to 0.6 times as much.

const (
	// probeRounds JSON round trips make one probe, about 0.1 s.
	probeRounds = 40
	// probeRef is the time of one probe, in seconds, at the reference
	// speed: the median over probes on the host README.md describes.
	probeRef = 0.1
	// probeEvery is the longest stretch measured between two probes,
	// unless one call to the program takes longer.
	probeEvery = time.Second / 2
)

type probeRecord struct {
	Name  string
	Vals  []int
	Inner map[string]float64
	Next  *probeRecord
}

// probeInput is the probe's fixed input: 200 nested records drawn from a
// fixed seed.
var probeInput = func() []probeRecord {
	rng := rand.New(rand.NewSource(3))
	out := make([]probeRecord, 200)
	for i := range out {
		out[i] = probeRecord{
			Name:  "r" + string(rune('a'+i%26)),
			Vals:  rng.Perm(20),
			Inner: map[string]float64{"x": rng.Float64(), "y": rng.Float64(), "zz": rng.Float64()},
			Next:  &probeRecord{Name: "c", Vals: rng.Perm(5)},
		}
	}
	return out
}()

// probeOnce times probeRounds round trips of probeInput on the calling
// goroutine.
func probeOnce() float64 {
	start := time.Now()
	for i := 0; i < probeRounds; i++ {
		data, err := json.Marshal(probeInput)
		if err != nil {
			panic("bench: encoding the probe input: " + err.Error())
		}
		var back []probeRecord
		if err := json.Unmarshal(data, &back); err != nil || len(back) != len(probeInput) {
			panic("bench: decoding the probe input")
		}
	}
	return time.Since(start).Seconds()
}

// probeHost times one probe on each of par goroutines at once, as a pass
// keeps par workers busy, from a collected heap, and returns par over
// the sum of their speeds: the time par workers sharing fixed work would
// take. It collects the heap again after, so the probe's garbage is not
// the next stretch's.
func probeHost(par int) float64 {
	debug.FreeOSMemory()
	times := make([]float64, par)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = probeOnce()
		}(i)
	}
	wg.Wait()
	debug.FreeOSMemory()
	var speed float64
	for _, t := range times {
		speed += 1 / t
	}
	return float64(par) / speed
}

// hostClock scales measured stretches of time to the probe's reference
// speed. Each stretch belongs to a sample (a pass, or a batch of
// set-ups) and lies between two probes; a sample's scaled time is the sum
// of its stretches, each multiplied by probeRef over the geometric mean
// of the probes around it.
type hostClock struct {
	par       int
	probes    []float64 // seconds of each probe, in order
	last      time.Time // when the last probe ended
	stretches []stretch
}

type stretch struct {
	sample int     // the sample the stretch belongs to
	probe  int     // index of the probe before it
	wall   float64 // seconds
}

// newHostClock probes the host once, before the first stretch.
func newHostClock(par int) *hostClock {
	c := &hostClock{par: par}
	c.probe()
	return c
}

func (c *hostClock) probe() {
	c.probes = append(c.probes, probeHost(c.par))
	c.last = time.Now()
}

// add records a stretch of the sample and probes again once probeEvery
// has passed since the last probe. A nil clock records nothing.
func (c *hostClock) add(sample int, wall time.Duration) {
	if c == nil {
		return
	}
	c.stretches = append(c.stretches, stretch{sample: sample, probe: len(c.probes) - 1, wall: wall.Seconds()})
	if time.Since(c.last) >= probeEvery {
		c.probe()
	}
}

// scaled closes the last stretch with a probe if it has none yet and
// returns the scaled time of samples 0 to n-1.
func (c *hostClock) scaled(n int) []float64 {
	if k := len(c.stretches); k > 0 && c.stretches[k-1].probe == len(c.probes)-1 {
		c.probe()
	}
	out := make([]float64, n)
	for _, s := range c.stretches {
		if s.sample < n {
			out[s.sample] += s.wall * probeRef / math.Sqrt(c.probes[s.probe]*c.probes[s.probe+1])
		}
	}
	return out
}
