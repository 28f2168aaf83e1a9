package model

import (
	"strings"
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/clock"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/isa"
	"heteromem/internal/mem"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
)

// fakeEnv records what a protocol asks of the machine. The CPU "core"
// charges a fixed latency per stream so tests can assert time motion.
type fakeEnv struct {
	handle  addrspace.Object
	space   *addrspace.Space
	fabric  *comm.Fabric
	comm    clock.Duration
	ownOps  int
	faults  int
	flushed []mem.PU
	streams []trace.Stream
}

const fakeStreamLatency = clock.Duration(1000)

func (e *fakeEnv) SharedHandle() addrspace.Object { return e.handle }
func (e *fakeEnv) Space() *addrspace.Space        { return e.space }
func (e *fakeEnv) FlushPrivate(pu mem.PU)         { e.flushed = append(e.flushed, pu) }
func (e *fakeEnv) RunCPUStream(st trace.Stream, now clock.Time) clock.Time {
	e.streams = append(e.streams, st)
	return now.Add(fakeStreamLatency)
}
func (e *fakeEnv) Fabric() *comm.Fabric        { return e.fabric }
func (e *fakeEnv) Tracer() *obs.Tracer         { return nil }
func (e *fakeEnv) ChargeComm(d clock.Duration) { e.comm += d }
func (e *fakeEnv) CountOwnershipOp()           { e.ownOps++ }
func (e *fakeEnv) CountPageFaults(n int)       { e.faults += n }

func syncEnv() *fakeEnv  { return &fakeEnv{fabric: comm.New(comm.Ideal, config.Ideal(), nil)} }
func asyncEnv() *fakeEnv { return &fakeEnv{fabric: comm.New(comm.PCIeAsync, config.TableIV(), nil)} }

func TestKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		parsed, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k, err)
		}
		if parsed != k {
			t.Errorf("ParseKind(%q) = %v", k, parsed)
		}
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v.MarshalText: %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != k {
			t.Errorf("text round trip %v -> %q -> %v", k, text, back)
		}
	}
	if _, err := ParseKind("warp-drive"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
	if _, err := NumKinds.MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range kind")
	}
}

func TestKindPredicates(t *testing.T) {
	if !OwnershipFirstTouch.UsesOwnership() || !Ownership.UsesOwnership() {
		t.Error("ownership kinds should use ownership")
	}
	if ExplicitCopy.UsesOwnership() || ADSMLazy.UsesOwnership() || Ideal.UsesOwnership() {
		t.Error("non-ownership kinds report ownership")
	}
	if !OwnershipFirstTouch.FirstTouchFaults() || Ownership.FirstTouchFaults() {
		t.Error("only ownership-first-touch takes faults")
	}
	for _, k := range []Kind{Ownership, OwnershipFirstTouch, ADSMLazy} {
		if !k.ElidesDeviceToHost() {
			t.Errorf("%v should elide the copy-back", k)
		}
	}
	for _, k := range []Kind{ExplicitCopy, Ideal} {
		if k.ElidesDeviceToHost() {
			t.Errorf("%v should run the copy-back", k)
		}
	}
}

// TestNewNamesMatchKinds checks that New builds every named kind and
// that the built protocol's hooks follow that kind's predicates.
func TestNewNamesMatchKinds(t *testing.T) {
	for _, k := range AllKinds() {
		p, err := New(k, 0)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		env := syncEnv()
		if _, handled, _ := p.KernelReturn(env, 0); handled != k.ElidesDeviceToHost() {
			t.Errorf("%v: KernelReturn handled = %v, want %v", k, handled, k.ElidesDeviceToHost())
		}
		if _, err := p.BeforeTransfer(env, 0x1000, 1<<20, 0); err != nil {
			t.Fatalf("%v: BeforeTransfer: %v", k, err)
		}
		if got := env.ownOps > 0; got != k.UsesOwnership() {
			t.Errorf("%v: ownership ops charged = %v, want %v", k, got, k.UsesOwnership())
		}
		p.KernelEntry(env, 0, nil)
		if got := env.faults > 0; got != k.FirstTouchFaults() {
			t.Errorf("%v: first-touch faults charged = %v, want %v", k, got, k.FirstTouchFaults())
		}
	}
	if _, err := New(NumKinds, 0); err == nil {
		t.Error("New accepted an unknown kind")
	}
}

func TestOwnershipFaultQueueing(t *testing.T) {
	env := syncEnv()
	p, err := New(OwnershipFirstTouch, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First host-to-device transfer of an object: release + one queued
	// fault (large pages cover the whole object).
	end, err := p.BeforeTransfer(env, 0x1000, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != clock.Time(0).Add(fakeStreamLatency) {
		t.Errorf("release end = %v, want the CPU stream latency", end)
	}
	if env.ownOps != 1 {
		t.Errorf("ownership ops after release = %d, want 1", env.ownOps)
	}
	prologue := p.KernelEntry(env, end, nil)
	var acq, pf int
	for _, inst := range prologue {
		switch inst.Kind {
		case isa.APIAcquire:
			acq++
		case isa.LibPageFault:
			pf++
		}
	}
	if acq != 1 || pf != 1 {
		t.Errorf("prologue = %d acquires + %d faults, want 1+1", acq, pf)
	}
	if env.faults != 1 || env.ownOps != 2 {
		t.Errorf("counters = %d faults, %d ownership ops, want 1, 2", env.faults, env.ownOps)
	}
	// Retransfer of the same object: release again, but no new fault.
	if _, err := p.BeforeTransfer(env, 0x1000, 1<<20, end); err != nil {
		t.Fatal(err)
	}
	if got := p.KernelEntry(env, end, nil); len(got) != 1 || got[0].Kind != isa.APIAcquire {
		t.Errorf("retransfer prologue = %v, want a lone acquire", got)
	}
	if env.faults != 1 {
		t.Errorf("faults after retransfer = %d, want still 1", env.faults)
	}
}

func TestOwnershipFaultGranularity(t *testing.T) {
	env := syncEnv()
	p, err := New(OwnershipFirstTouch, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// 10000 bytes at 4 KiB pages = ceil(10000/4096) = 3 faults.
	if _, err := p.BeforeTransfer(env, 0x2000, 10000, 0); err != nil {
		t.Fatal(err)
	}
	p.KernelEntry(env, 0, nil)
	if env.faults != 3 {
		t.Errorf("faults = %d, want 3 (one per 4 KiB granule)", env.faults)
	}
}

func TestOwnershipWalksSpace(t *testing.T) {
	sp, err := addrspace.New(addrspace.PartiallyShared, 4096)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sp.Alloc(1<<16, addrspace.Shared)
	if err != nil {
		t.Fatal(err)
	}
	env := syncEnv()
	env.space = sp
	env.handle = obj
	p, err := New(OwnershipFirstTouch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeforeTransfer(env, obj.Base, obj.Size, 0); err != nil {
		t.Fatal(err)
	}
	if len(env.flushed) == 0 || env.flushed[0] != mem.CPU {
		t.Errorf("release did not flush the CPU caches: %v", env.flushed)
	}
	p.KernelEntry(env, 0, nil)
	if owner, ok := sp.OwnerOf(obj.Base); !ok || owner != mem.GPU {
		t.Errorf("owner after kernel entry = %v/%v, want GPU", owner, ok)
	}
	end, handled, err := p.KernelReturn(env, 0)
	if err != nil || !handled {
		t.Fatalf("KernelReturn = (%v, %v, %v), want handled", end, handled, err)
	}
	if owner, ok := sp.OwnerOf(obj.Base); !ok || owner != mem.CPU {
		t.Errorf("owner after kernel return = %v/%v, want CPU", owner, ok)
	}
}

func TestAsyncHorizon(t *testing.T) {
	env := asyncEnv()
	p, err := New(ADSMLazy, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AfterTransfer(env, clock.Time(5000))
	got := p.SyncPoint(env, clock.Time(1000))
	if got != clock.Time(5000) {
		t.Errorf("SyncPoint = %v, want the copy horizon 5000", got)
	}
	if env.comm != clock.Duration(4000) {
		t.Errorf("exposed wait charged = %v, want 4000", env.comm)
	}
	// A later sync point has nothing left to wait for.
	if got := p.SyncPoint(env, clock.Time(6000)); got != clock.Time(6000) {
		t.Errorf("second SyncPoint = %v, want now", got)
	}
}

func TestSyncFabricTracksNoHorizon(t *testing.T) {
	env := syncEnv()
	p, err := New(ExplicitCopy, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A synchronous fabric blocks inside the transfer; the protocol must
	// not double-charge the copy at sync points.
	p.AfterTransfer(env, clock.Time(9000))
	if got := p.SyncPoint(env, clock.Time(100)); got != clock.Time(100) {
		t.Errorf("SyncPoint = %v, want now (nothing outstanding)", got)
	}
	if env.comm != 0 {
		t.Errorf("comm charged = %v, want 0", env.comm)
	}
}

func TestAdsmReturnSync(t *testing.T) {
	env := asyncEnv()
	p, err := New(ADSMLazy, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AfterTransfer(env, clock.Time(50_000_000))
	end, handled, err := p.KernelReturn(env, clock.Time(0))
	if err != nil || !handled {
		t.Fatalf("KernelReturn = (%v, %v, %v), want handled", end, handled, err)
	}
	launch := env.fabric.Launch()
	if end != clock.Time(50_000_000) {
		t.Errorf("return sync end = %v, want the copy horizon", end)
	}
	wantComm := launch + clock.Time(50_000_000).Sub(clock.Time(0).Add(launch))
	if env.comm != wantComm {
		t.Errorf("comm charged = %v, want launch + exposed wait = %v", env.comm, wantComm)
	}
}

func TestPassiveProtocolsAreInert(t *testing.T) {
	for _, k := range []Kind{ExplicitCopy, Ideal} {
		env := syncEnv()
		p, err := New(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.KernelEntry(env, 0, nil); len(got) != 0 {
			t.Errorf("%v prologue = %v, want empty", k, got)
		}
		if _, handled, _ := p.KernelReturn(env, 0); handled {
			t.Errorf("%v elided the copy-back", k)
		}
		if end, err := p.BeforeTransfer(env, 0, 1<<20, clock.Time(7)); err != nil || end != clock.Time(7) {
			t.Errorf("%v BeforeTransfer moved time: %v, %v", k, end, err)
		}
		if env.comm != 0 || env.ownOps != 0 || env.faults != 0 {
			t.Errorf("%v charged costs: %+v", k, env)
		}
	}
}

func TestUnknownKindString(t *testing.T) {
	if s := Kind(250).String(); !strings.Contains(s, "250") {
		t.Errorf("out-of-range String() = %q", s)
	}
}
