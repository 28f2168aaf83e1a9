package sim

import (
	"bytes"
	"strings"
	"testing"

	"heteromem/internal/isa"
	"heteromem/internal/systems"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// Budgets that keep one fuzz execution short. A program over either is
// skipped, not failed: its cost grows with its size, which says nothing
// about robustness.
const (
	// fuzzMaxInsts bounds the instructions of every phase together.
	fuzzMaxInsts = 20000
	// fuzzMaxPushBytes bounds the bytes all push records move: a push
	// walks its range line by line.
	fuzzMaxPushBytes = 1 << 20
	// fuzzMaxTransferBytes bounds the bytes all transfer phases move: the
	// memory-controller fabric times a transfer line by line.
	fuzzMaxTransferBytes = 16 << 20
)

// fuzzProgram is the reduction kernel with every trace cut to its first
// few records, so the seed exercises each phase kind in a small file.
func fuzzProgram(tb testing.TB) []byte {
	tb.Helper()
	p := workload.MustGenerate("reduction")
	for i := range p.Phases {
		ph := &p.Phases[i]
		ph.CPU = ph.CPU[:min(len(ph.CPU), 40)]
		ph.GPU = ph.GPU[:min(len(ph.GPU), 40)]
	}
	return saveProgram(tb, p)
}

// wrappedPushProgram is a one-phase program whose single record pushes
// a range that ends 10 bytes below 2^64: walking it line by line by an
// address bound wrapped to zero and never ended.
func wrappedPushProgram(tb testing.TB) []byte {
	tb.Helper()
	return saveProgram(tb, &workload.Program{
		Name: "wrapped-push",
		Phases: []workload.Phase{{
			Kind: workload.Sequential,
			CPU:  trace.Stream{{Kind: isa.Push, Addr: 1<<64 - 100, Size: 90, PushLevel: trace.PushShared}},
		}},
	})
}

// hugeTransferProgram moves 1 TB in one transfer phase, which Fusion's
// memory-controller fabric would time line by line for over ten
// minutes, so validation must reject it.
func hugeTransferProgram() *workload.Program {
	return &workload.Program{
		Name:   "huge-transfer",
		Phases: []workload.Phase{{Kind: workload.Transfer, Dir: workload.HostToDevice, Bytes: 1 << 40}},
	}
}

func saveProgram(tb testing.TB, p *workload.Program) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := workload.SaveProgram(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSimulateProgram runs every program the loader accepts, within the
// budgets above, on the case study the first input chooses (LRB's
// aperture and Fusion's memory controllers among them). The simulator
// must return, with a result or an error, and never panic or hang; a
// result must account for every instruction of the program.
func FuzzSimulateProgram(f *testing.F) {
	const lrb, fusion = 1, 3 // indices into systems.CaseStudies
	wrapped := wrappedPushProgram(f)
	if _, err := workload.LoadProgram(bytes.NewReader(wrapped)); err == nil {
		f.Fatal("program with a wrapping push range accepted")
	}
	f.Add(byte(lrb), wrapped)
	f.Add(byte(lrb), fuzzProgram(f))
	f.Add(byte(fusion), fuzzProgram(f))
	f.Add(byte(fusion), saveProgram(f, hugeTransferProgram()))

	studies := systems.CaseStudies()
	f.Fuzz(func(t *testing.T, study byte, data []byte) {
		p, err := workload.LoadProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.TotalInstructions() > fuzzMaxInsts {
			t.Skip("over the instruction budget")
		}
		var pushBytes, transferBytes uint64
		for i := range p.Phases {
			transferBytes += p.Phases[i].Bytes
			for _, s := range []trace.Stream{p.Phases[i].CPU, p.Phases[i].GPU} {
				for _, in := range s {
					if in.Kind == isa.Push {
						pushBytes += uint64(in.Size)
					}
				}
			}
		}
		if pushBytes > fuzzMaxPushBytes {
			t.Skip("over the push-byte budget")
		}
		if transferBytes > fuzzMaxTransferBytes {
			t.Skip("over the transfer-byte budget")
		}
		s := MustNew(studies[int(study)%len(studies)])
		res, err := s.Run(p)
		if err != nil {
			return
		}
		// The protocol may inject ownership and fault instructions, so a
		// result counts at least the program's own.
		if got := res.CPU.Instructions + res.GPU.Instructions; got < p.TotalInstructions() {
			t.Fatalf("result counts %d instructions, program has %d", got, p.TotalInstructions())
		}
	})
}

// TestHugeTransferRejected pins the bound on transfer phases: a saved
// program moving 1 TB fails to load, and running it on Fusion, whose
// memory-controller fabric times every line, returns the same error
// instead of exhausting memory or time.
func TestHugeTransferRejected(t *testing.T) {
	p := hugeTransferProgram()
	_, err := workload.LoadProgram(bytes.NewReader(saveProgram(t, p)))
	if err == nil || !strings.Contains(err.Error(), "phase 0") {
		t.Fatalf("LoadProgram error = %v, want one naming phase 0", err)
	}
	if _, err := MustNew(systems.Fusion()).Run(p); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Run on Fusion error = %v, want the transfer bound", err)
	}
}
