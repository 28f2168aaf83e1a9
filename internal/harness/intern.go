package harness

import (
	"sync"

	"heteromem/internal/workload"
)

// programs interns one immutable streaming Program per kernel for the
// lifetime of the process. An opened program is read-only — compute
// phases carry generator parameters, and every replay draws a fresh
// cursor — so a single interned instance is safely shared by all sweep
// workers and repeated sweeps, instead of re-synthesising multi-million
// instruction traces per RunSystems call.
var programs sync.Map // kernel name -> *interned

// interned is an interned program and its WorkloadFingerprint. The
// program never changes, so its fingerprint is a property of it,
// computed once when the program is interned rather than on every
// RunSystems call.
type interned struct {
	prog *workload.Program
	fp   string
}

// internProgram returns the shared streaming program for the kernel and
// its WorkloadFingerprint.
func internProgram(kernel string) (*workload.Program, string, error) {
	if in, ok := programs.Load(kernel); ok {
		in := in.(*interned)
		return in.prog, in.fp, nil
	}
	p, err := workload.Open(kernel)
	if err != nil {
		return nil, "", err
	}
	// A racing worker may have stored first; both built identical
	// programs, keep whichever won.
	actual, _ := programs.LoadOrStore(kernel, &interned{prog: p, fp: WorkloadFingerprint(p)})
	in := actual.(*interned)
	return in.prog, in.fp, nil
}
