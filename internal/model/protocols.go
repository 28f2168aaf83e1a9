package model

import (
	"heteromem/internal/clock"
	"heteromem/internal/isa"
	"heteromem/internal/mem"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
)

// Single-instruction API-call streams used at ownership handovers;
// immutable.
var (
	acquireStream = trace.Stream{{Kind: isa.APIAcquire}}
	releaseStream = trace.Stream{{Kind: isa.APIRelease}}
)

// Protocol is one programming-model protocol: the runtime behaviour of
// its Kind at phase boundaries. Each hook branches on the kind's
// predicates, so a new protocol is a new Kind row, not a new type. A
// Protocol is stateful across the phases of a run; a new run starts on
// a new build.
type Protocol struct {
	kind Kind
	// granularity is the page size behind first-touch faults; zero means
	// the GPU's large pages cover a whole object (one fault per object).
	granularity uint64

	// ready is when outstanding asynchronous copies complete. Any
	// protocol may run over an asynchronous fabric in the open design
	// space, and the horizon is programming-model state (GMAC's return
	// synchronisation), not fabric state.
	ready clock.Time
	// pendingAcquire queues the GPU-side ownership acquire for the next
	// kernel entry after the CPU released the shared handle.
	pendingAcquire bool
	// pendingFaults queues lib-pf events for the next kernel entry.
	pendingFaults int
	// touched tracks which transfer targets the GPU has faulted on
	// already (one lib-pf per shared object, see DESIGN.md).
	touched map[uint64]bool
}

// KernelEntry appends the GPU prologue for a parallel phase starting at
// now to dst and returns it; the simulator executes the returned stream
// on the GPU core before the kernel body. Under ownership the GPU
// acquires the shared data, then faults once per freshly shared object.
func (p *Protocol) KernelEntry(env Env, now clock.Time, dst trace.Stream) trace.Stream {
	if p.pendingAcquire {
		dst = append(dst, trace.Inst{Kind: isa.APIAcquire})
		p.pendingAcquire = false
		env.CountOwnershipOp()
		if h := env.SharedHandle(); h.Size != 0 {
			// Walk the protocol in the address space as well, so space
			// statistics reflect the handovers.
			_ = env.Space().Acquire(mem.GPU, h)
		}
		env.Tracer().Instant(obs.TrackGPU, "acquire-ownership", "model", uint64(now), nil)
	}
	for f := 0; f < p.pendingFaults; f++ {
		dst = append(dst, trace.Inst{Kind: isa.LibPageFault})
	}
	if p.pendingFaults > 0 {
		env.Tracer().Instant(obs.TrackGPU, "lib-pf", "model", uint64(now),
			map[string]any{"faults": p.pendingFaults})
		env.CountPageFaults(p.pendingFaults)
		p.pendingFaults = 0
	}
	return dst
}

// KernelReturn handles a device-to-host transfer phase. handled reports
// that the bulk copy is elided because the result already lives in a
// space the CPU can address, and that the protocol charged its own
// return cost; when handled is false time has not moved and the
// simulator runs the bulk copy. Under ownership the model hands
// ownership back to the CPU, flushing the GPU's private caches on its
// release side of the handover; then return synchronisation waits for
// outstanding copies.
func (p *Protocol) KernelReturn(env Env, now clock.Time) (end clock.Time, handled bool, err error) {
	if !p.kind.ElidesDeviceToHost() {
		return now, false, nil
	}
	if p.kind.UsesOwnership() {
		if h := env.SharedHandle(); h.Size != 0 {
			env.FlushPrivate(mem.GPU)
			if err := env.Space().Acquire(mem.CPU, h); err != nil {
				return now, true, err
			}
		}
		env.Tracer().Instant(obs.TrackGPU, "cache-flush", "model", uint64(now), nil)
		env.Tracer().Instant(obs.TrackCPU, "acquire-ownership", "model", uint64(now), nil)
		end := env.RunCPUStream(acquireStream, now)
		env.ChargeComm(end.Sub(now))
		env.CountOwnershipOp()
		now = end
	}
	return p.returnSync(env, now), true, nil
}

// BeforeTransfer runs ahead of a host-to-device bulk copy of bytes at
// addr. Under ownership the CPU releases the shared data before it moves
// into the shared space; the GPU acquires at the next kernel entry, and
// with first-touch faults its first touch of each new object faults.
func (p *Protocol) BeforeTransfer(env Env, addr, bytes uint64, now clock.Time) (clock.Time, error) {
	if !p.kind.UsesOwnership() {
		return now, nil
	}
	if err := releaseShared(env); err != nil {
		return now, err
	}
	env.Tracer().Instant(obs.TrackCPU, "cache-flush", "model", uint64(now), nil)
	env.Tracer().Instant(obs.TrackCPU, "release-ownership", "model", uint64(now), nil)
	end := env.RunCPUStream(releaseStream, now)
	env.ChargeComm(end.Sub(now))
	env.CountOwnershipOp()
	p.pendingAcquire = true
	if p.kind.FirstTouchFaults() && !p.touched[addr] {
		p.touched[addr] = true
		if g := p.granularity; g > 0 {
			// One fault per page-sized granule of the freshly shared data.
			p.pendingFaults += int((bytes + g - 1) / g)
		} else {
			// Large pages cover the whole object: one fault.
			p.pendingFaults++
		}
	}
	return end, nil
}

// releaseShared walks the address-space protocol: the CPU gives up the
// shared handle so the GPU may take it. Release consistency requires the
// releasing PU's private caches to be written back and invalidated — the
// shared space is not kept coherent by hardware (Section II-A3).
func releaseShared(env Env) error {
	h := env.SharedHandle()
	if h.Size == 0 {
		return nil // program has no shared object under this model
	}
	env.FlushPrivate(mem.CPU)
	sp := env.Space()
	if owner, ok := sp.OwnerOf(h.Base); ok && owner == mem.CPU {
		return sp.Release(mem.CPU, h)
	}
	return nil
}

// AfterTransfer observes the completion time of a bulk copy issued by
// the simulator: a copy on an asynchronous fabric completes in the
// background, extending the horizon sync points must wait on.
// Synchronous fabrics block inside the transfer itself, so there is
// nothing to track.
func (p *Protocol) AfterTransfer(env Env, done clock.Time) {
	if env.Fabric().Async() {
		p.ready = clock.Max(p.ready, done)
	}
}

// SyncPoint blocks until outstanding asynchronous copies land before the
// program completes, charging the exposed wait as communication.
func (p *Protocol) SyncPoint(env Env, now clock.Time) clock.Time {
	if p.ready > now {
		env.Tracer().Span(obs.TrackFabric, "async-wait", "comm", uint64(now), uint64(p.ready), nil)
		env.ChargeComm(p.ready.Sub(now))
		now = p.ready
	}
	return now
}

// returnSync is ADSM return synchronisation (one of GMAC's four
// fundamental APIs) at a kernel-return boundary: the host pays the
// synchronisation call itself, then blocks until outstanding copies
// land. On a synchronous fabric both are free and this is a no-op.
func (p *Protocol) returnSync(env Env, now clock.Time) clock.Time {
	if f := env.Fabric(); f.Async() {
		sync := f.Launch()
		env.ChargeComm(sync)
		now = now.Add(sync)
	}
	if p.ready > now {
		env.ChargeComm(p.ready.Sub(now))
		now = p.ready
	}
	return now
}
