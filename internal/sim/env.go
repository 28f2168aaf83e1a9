package sim

import (
	"heteromem/internal/addrspace"
	"heteromem/internal/clock"
	"heteromem/internal/comm"
	"heteromem/internal/mem"
	"heteromem/internal/model"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
)

var _ model.Env = (*protoEnv)(nil)

// protoEnv adapts the simulator to model.Env: the surface the
// programming-model protocol acts through. res points at the result of
// the run in flight, so protocol costs (ownership streams, exposed async
// waits, fault counts) land in the right accumulators.
type protoEnv struct {
	s   *Simulator
	res *Result
}

func (e *protoEnv) SharedHandle() addrspace.Object { return e.s.sharedHandle }

func (e *protoEnv) Space() *addrspace.Space { return e.s.space }

func (e *protoEnv) FlushPrivate(pu mem.PU) { e.s.hier.FlushPrivate(pu) }

func (e *protoEnv) RunCPUStream(st trace.Stream, now clock.Time) clock.Time {
	end, cst := e.s.cpuCore.RunStream(st, now)
	addCPUStats(&e.res.CPU, cst)
	return end
}

func (e *protoEnv) Fabric() *comm.Fabric { return e.s.fabric }

func (e *protoEnv) Tracer() *obs.Tracer { return e.s.tracer }

func (e *protoEnv) ChargeComm(d clock.Duration) { e.res.Communication += d }

func (e *protoEnv) CountOwnershipOp() { e.res.OwnershipOps++ }

func (e *protoEnv) CountPageFaults(n int) { e.res.PageFaults += n }
