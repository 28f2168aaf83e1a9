package isa

import (
	"fmt"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{ALU, "alu"},
		{SIMDLoad, "simd.load"},
		{APIPCI, "api-pci"},
		{APIAcquire, "api-acq"},
		{APITransfer, "api-tr"},
		{LibPageFault, "lib-pf"},
		{Push, "push"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.k, got, c.want)
		}
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should print its number")
	}
}

func TestValid(t *testing.T) {
	for _, k := range AllKinds() {
		if !k.Valid() {
			t.Errorf("%v reported invalid", k)
		}
	}
	if Kind(200).Valid() {
		t.Error("kind 200 reported valid")
	}
	if Kind(30).Valid() {
		t.Error("gap kind 30 reported valid")
	}
}

// TestKindTableMatchesMap pins the array-indexed String and Valid to the
// map they replaced, for every uint8 value: defined kinds, the gap
// between Barrier and APIPCI, and everything past Push.
func TestKindTableMatchesMap(t *testing.T) {
	names := map[Kind]string{
		Nop: "nop", ALU: "alu", Mul: "mul", Div: "div", FP: "fp", FDiv: "fdiv",
		Load: "load", Store: "store", Branch: "branch",
		SIMDALU: "simd.alu", SIMDFP: "simd.fp", SIMDLoad: "simd.load", SIMDStore: "simd.store",
		SWLoad: "sw.load", SWStore: "sw.store", Barrier: "barrier",
		APIPCI: "api-pci", APIAcquire: "api-acq", APIRelease: "api-rel",
		APITransfer: "api-tr", LibPageFault: "lib-pf", Push: "push",
	}
	for v := 0; v < 256; v++ {
		k := Kind(v)
		want, ok := names[k]
		if !ok {
			want = fmt.Sprintf("kind(%d)", v)
		}
		if k.Valid() != ok || k.String() != want {
			t.Errorf("Kind(%d): Valid %v String %q, want %v %q", v, k.Valid(), k.String(), ok, want)
		}
	}
}

func TestClassification(t *testing.T) {
	if !Load.IsMem() || !SIMDStore.IsMem() {
		t.Error("Load/SIMDStore must be memory ops")
	}
	if SWLoad.IsMem() {
		t.Error("SWLoad must not hit the hardware hierarchy")
	}
	if !SWLoad.IsSoftwareCache() || !SWStore.IsSoftwareCache() {
		t.Error("SWLoad/SWStore are software-cache ops")
	}
	if !Load.IsLoad() || !SWLoad.IsLoad() || Store.IsLoad() {
		t.Error("IsLoad misclassified")
	}
	if !Store.IsStore() || !SWStore.IsStore() || Load.IsStore() {
		t.Error("IsStore misclassified")
	}
	if !SIMDALU.IsSIMD() || ALU.IsSIMD() {
		t.Error("IsSIMD misclassified")
	}
	for _, k := range []Kind{APIPCI, APIAcquire, APIRelease, APITransfer, LibPageFault} {
		if !k.IsComm() {
			t.Errorf("%v should be a communication instruction", k)
		}
	}
	if Push.IsComm() {
		t.Error("push is locality control, not communication")
	}
}

func TestExecLatency(t *testing.T) {
	if ALU.ExecLatency() != 1 {
		t.Error("ALU latency != 1")
	}
	if FP.ExecLatency() != 4 {
		t.Error("FP latency != 4")
	}
	if Div.ExecLatency() <= Mul.ExecLatency() {
		t.Error("Div should be slower than Mul")
	}
	// Memory and comm instructions defer to the memory system / fabric.
	for _, k := range []Kind{Load, Store, SIMDLoad, APIPCI, LibPageFault} {
		if k.ExecLatency() != 0 {
			t.Errorf("%v should have no fixed exec latency", k)
		}
	}
}

func TestKindSetsDisjoint(t *testing.T) {
	for _, k := range AllKinds() {
		n := 0
		if k.IsMem() {
			n++
		}
		if k.IsComm() {
			n++
		}
		if k.IsSoftwareCache() {
			n++
		}
		if n > 1 {
			t.Errorf("%v belongs to more than one of mem/comm/swcache", k)
		}
	}
}
