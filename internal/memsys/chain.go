package memsys

import (
	"time"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Chain is the memory pipeline: the stages of one PU's request path,
// held as concrete types and invoked directly in Table II order, so no
// per-access interface dispatch sits on the hot path. Every executed
// stage stamps its completion time into the request, and a Done
// verdict skips the rest.
type Chain struct {
	// Xlat, when non-nil, is the address-translation front-end (the
	// translation axis): every access is translated before it touches
	// the private caches. Nil means translation off — no probe, no
	// branch cost beyond one pointer check.
	Xlat    *TranslationStage
	Private *PrivateStage
	MSHR    *MSHRStage
	ReqHop  *RingHopStage
	L3      *L3Stage
	// Backend is the terminal memory stage (the mem_tech axis): the
	// DDR3 DRAMStage by default, or an HBM/NVM/DRAM-cache stage. This
	// is the chain's one interface slot — it sits on the L3-miss path
	// only, so the dispatch never touches the L1-hit fast path.
	Backend Backend
	RespHop *RingHopStage
	Commit  *CommitStage

	// Prof, when non-nil, attributes sampled HOST wall-clock time to the
	// chain's stages: one in every Prof.Every() runs is timed stage by
	// stage, so a sweep can see which simulation stage burns real time
	// without paying a clock read per stage on every access. ProfBase
	// is the profiler section id of the translation stage; the remaining
	// stages follow contiguously in chain order (see ProfSections).
	Prof     *obs.HostProf
	ProfBase int
}

// ProfSections lists the chain's host-profiling section names in stage
// order. Hierarchies register them contiguously so ProfBase+offset
// addresses each stage.
func ProfSections() []string {
	return []string{
		"memsys.xlat", "memsys.private", "memsys.mshr", "memsys.ring_req",
		"memsys.l3", "memsys.dram", "memsys.ring_resp", "memsys.commit",
	}
}

// Offsets of each stage's profiler section from ProfBase, matching
// ProfSections order.
const (
	profXlat = iota
	profPrivate
	profMSHR
	profRingReq
	profL3
	profDRAM
	profRingResp
	profCommit
)

// Run processes r through the full chain and returns its completion
// time.
func (c *Chain) Run(r *Request) clock.Time {
	return c.run(r, false, c.Prof.Sample())
}

// RunMissedL1 continues a request whose first-level lookup was already
// performed (and missed) by the caller — the hierarchy's L1-hit fast
// path. r.Now must already include the L1 latency, and when the
// translation axis is on the caller has already translated the address
// (the hierarchy charges Xlat before its L1 probe).
func (c *Chain) RunMissedL1(r *Request) clock.Time {
	return c.run(r, true, c.Prof.Sample())
}

// run is the one chain path: translation (unless the caller already
// did it), private levels, MSHR merge, ring hop out, L3 (with
// coherence), the terminal backend, ring hop back, commit. With prof
// set, each stage's host time is charged to its profiler section;
// simulated timing and cache mutations do not depend on prof, so a
// profiled run stays bit-identical to an unprofiled one.
func (c *Chain) run(r *Request, missedL1, prof bool) clock.Time {
	var t time.Time
	if prof {
		t = time.Now()
	}
	if !missedL1 && c.Xlat != nil {
		c.Xlat.Process(r)
		r.Stamp[StageXlat] = r.Now
		c.lap(prof, &t, profXlat)
	}
	var v Verdict
	if missedL1 {
		v = c.Private.ProcessMissedL1(r)
	} else {
		v = c.Private.Process(r)
	}
	r.Stamp[StagePrivate] = r.Now
	c.lap(prof, &t, profPrivate)
	if v == Done {
		return r.Now
	}
	v = c.MSHR.Process(r)
	r.Stamp[StageMSHR] = r.Now
	c.lap(prof, &t, profMSHR)
	if v == Done {
		return r.Now
	}
	c.ReqHop.Process(r)
	r.Stamp[StageRingReq] = r.Now
	c.lap(prof, &t, profRingReq)
	c.L3.Process(r)
	r.Stamp[StageL3] = r.Now
	c.lap(prof, &t, profL3)
	c.Backend.Process(r)
	r.Stamp[StageDRAM] = r.Now
	c.lap(prof, &t, profDRAM)
	c.RespHop.Process(r)
	r.Stamp[StageRingResp] = r.Now
	c.lap(prof, &t, profRingResp)
	c.Commit.Process(r)
	r.Stamp[StageCommit] = r.Now
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
