package main

import (
	"strings"
	"testing"

	"heteromem/internal/addrspace"
)

func TestCheckFlags(t *testing.T) {
	if m, err := checkFlags("", "PAS", false, false); err != nil || m != addrspace.PartiallyShared {
		t.Fatalf("checkFlags(-model PAS) = %v, %v; want partially-shared", m, err)
	}
	if m, err := checkFlags("reduction", "adsm", true, true); err != nil || m != addrspace.ADSM {
		t.Fatalf("checkFlags(-kernel reduction -model adsm -comm -annotate) = %v, %v", m, err)
	}
	// A bad model fails even when only Table V would be printed.
	for _, kernel := range []string{"", "reduction"} {
		if _, err := checkFlags(kernel, "bogus", false, false); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("kernel %q, -model bogus: err = %v, want one naming \"bogus\"", kernel, err)
		}
	}
	// -comm and -annotate shape a kernel's source; without -kernel they
	// would be silently ignored.
	for _, f := range []struct{ comm, annotate bool }{{true, false}, {false, true}} {
		if _, err := checkFlags("", "unified", f.comm, f.annotate); err == nil {
			t.Errorf("-comm=%v -annotate=%v without -kernel accepted", f.comm, f.annotate)
		}
	}
}
