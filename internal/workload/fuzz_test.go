package workload

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"heteromem/internal/trace"
)

// smallProgram is the reduction kernel with every trace cut to its
// first few records: every phase kind and object field is present, in
// a file of about a kilobyte.
func smallProgram(tb testing.TB) *Program {
	tb.Helper()
	p := MustGenerate("reduction")
	for i := range p.Phases {
		ph := &p.Phases[i]
		ph.CPU = ph.CPU[:min(len(ph.CPU), 6)]
		ph.GPU = ph.GPU[:min(len(ph.GPU), 6)]
	}
	if err := p.Validate(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// forgedTraceCount is a program whose one sequential phase carries a
// bare trace header claiming 1<<32 records and nothing after it.
func forgedTraceCount(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	p := &Program{Name: "forged", Phases: []Phase{{Kind: Sequential}}}
	if err := SaveProgram(&buf, p); err != nil {
		tb.Fatal(err)
	}
	// The file ends with the phase's two empty trace headers (magic,
	// version, count): keep the first and inflate its count.
	raw := buf.Bytes()
	const header = 14
	raw = raw[:len(raw)-header]
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], 1<<32)
	return raw
}

// FuzzLoadProgram feeds arbitrary bytes to the program loader. It must
// return an error rather than panic or exhaust memory, and any program
// it accepts must save and reload to an identical program.
func FuzzLoadProgram(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveProgram(&buf, smallProgram(f)); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	for _, n := range []int{0, 4, 6, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
	forged := forgedTraceCount(f)
	if _, err := LoadProgram(bytes.NewReader(forged)); err == nil {
		f.Fatal("program with a forged trace record count accepted")
	}
	if _, err := trace.Read(bytes.NewReader(forged[len(forged)-14:])); err == nil {
		f.Fatal("forged trace header accepted")
	}
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveProgram(&out, p); err != nil {
			t.Fatalf("accepted program does not save: %v", err)
		}
		again, err := LoadProgram(&out)
		if err != nil {
			t.Fatalf("saved program does not reload: %v", err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("reload differs:\n got %+v\nwant %+v", again, p)
		}
	})
}
