package memsys

import (
	"time"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Chain is one PU's L1-miss path: the stages held as concrete types and
// invoked directly in Table II order, so no per-access interface
// dispatch sits on the hot path. The one interface call is the memory
// technology behind L3Stage.Fetch, reached only on an L3 miss.
type Chain struct {
	Private *PrivateStage
	MSHR    *MSHRStage
	ReqHop  *RingHopStage
	L3      *L3Stage
	RespHop *RingHopStage
	Commit  *CommitStage

	// Prof, when non-nil, attributes sampled HOST wall-clock time to the
	// chain's stages: one in every Prof.Every() runs is timed stage by
	// stage, so a sweep can see which simulation stage burns real time
	// without paying a clock read per stage on every access. ProfBase
	// is the profiler section id of memsys.xlat, the first of
	// ProfSections; the chain's stages follow contiguously.
	Prof     *obs.HostProf
	ProfBase int
}

// ProfSections lists the memory path's host-profiling section names in
// request order. Hierarchies register them contiguously so
// ProfBase+offset addresses each one. memsys.xlat is charged by the
// hierarchy, which translates before its L1 probe; memsys.dram times
// L3Stage.Fetch, whatever the memory technology.
func ProfSections() []string {
	return []string{
		"memsys.xlat", "memsys.private", "memsys.mshr", "memsys.ring_req",
		"memsys.l3", "memsys.dram", "memsys.ring_resp", "memsys.commit",
	}
}

// Offsets of the chain's profiler sections from ProfBase, matching
// ProfSections order (memsys.xlat is offset 0).
const (
	profPrivate = iota + 1
	profMSHR
	profRingReq
	profL3
	profDRAM
	profRingResp
	profCommit
)

// Run continues a request whose L1 lookup already missed — r.Now must
// include the L1 latency, and any translation — and returns its
// completion time: private L2, MSHR merge, ring hop out, L3 (with
// coherence), the fetch on an L3 miss, ring hop back, commit. When the
// profiler samples the run, each stage's host time is charged to its
// section; simulated timing and cache mutations do not depend on it,
// so a profiled run stays bit-identical to an unprofiled one.
func (c *Chain) Run(r *Request) clock.Time {
	prof := c.Prof.Sample()
	var t time.Time
	if prof {
		t = time.Now()
	}
	done := c.Private.Process(r)
	c.lap(prof, &t, profPrivate)
	if done {
		return r.Now
	}
	// The MSHR entry is keyed to the time the request enters the shared
	// path, not its completion time, so merges observe the full
	// in-flight window.
	issued := r.Now
	done = c.MSHR.Process(r)
	c.lap(prof, &t, profMSHR)
	if done {
		return r.Now
	}
	c.ReqHop.Process(r)
	c.lap(prof, &t, profRingReq)
	hit := c.L3.Process(r)
	c.lap(prof, &t, profL3)
	if !hit {
		c.L3.Fetch(r)
	}
	c.lap(prof, &t, profDRAM)
	c.RespHop.Process(r)
	c.lap(prof, &t, profRingResp)
	c.Commit.Process(r, issued)
	c.lap(prof, &t, profCommit)
	return r.Now
}

// lap charges the host time since *t to the stage at offset off from
// ProfBase and restarts *t; it does nothing unless prof is set. The
// check stays inlinable so an unprofiled run pays one branch per stage.
func (c *Chain) lap(prof bool, t *time.Time, off int) {
	if prof {
		c.charge(t, off)
	}
}

func (c *Chain) charge(t *time.Time, off int) {
	now := time.Now()
	c.Prof.Add(c.ProfBase+off, now.Sub(*t))
	*t = now
}
