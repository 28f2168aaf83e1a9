package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"heteromem/internal/isa"
)

func sample() Stream {
	return Stream{
		{PC: 0x400000, Kind: isa.ALU},
		{PC: 0x400004, Kind: isa.Load, Addr: 0x1000, Size: 8, Dep1: 1},
		{PC: 0x400008, Kind: isa.FP, Dep1: 1, Dep2: 2},
		{PC: 0x40000c, Kind: isa.Branch, Taken: true},
		{PC: 0x400010, Kind: isa.SIMDLoad, Addr: 0x2000, Size: 32, Lanes: 8},
		{PC: 0x400014, Kind: isa.Store, Addr: 0x1008, Size: 8, Dep1: 3},
		{PC: 0x400018, Kind: isa.APIPCI, Size: 65536},
		{PC: 0x40001c, Kind: isa.Push, Addr: 0x3000, Size: 4096, PushLevel: PushShared},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	// The last line whose end is representable may be pushed.
	top := Stream{{Kind: isa.Push, Addr: 1<<64 - 128, Size: 64, PushLevel: PushShared}}
	if err := top.Validate(); err != nil {
		t.Fatalf("push of the line below the top rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		s    Stream
		want string
	}{
		{"bad kind", Stream{{Kind: isa.Kind(200)}}, "invalid kind"},
		{"zero-size mem", Stream{{Kind: isa.Load}}, "zero size"},
		{"too many lanes", Stream{{Kind: isa.SIMDALU, Lanes: 9}}, "lanes"},
		{"lanes on scalar", Stream{{Kind: isa.ALU, Lanes: 4}}, "non-SIMD"},
		{"push level range", Stream{{Kind: isa.Push, Addr: 1, Size: 4, PushLevel: 3}}, "out of range"},
		{"push level on alu", Stream{{Kind: isa.ALU, PushLevel: 1}}, "non-push"},
		{"wrapping push", Stream{{Kind: isa.Push, Addr: 1<<64 - 100, Size: 90, PushLevel: PushShared}}, "wraps"},
		{"push of the top line", Stream{{Kind: isa.Push, Addr: 1<<64 - 64, Size: 64}}, "wraps"},
		{"wrapping load", Stream{{Kind: isa.SIMDLoad, Addr: 1<<64 - 8, Size: 16}}, "wraps"},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if err == nil {
			t.Errorf("%s: not rejected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestActiveLanes(t *testing.T) {
	if (Inst{Kind: isa.SIMDALU}).ActiveLanes() != 8 {
		t.Error("zero lanes should default to 8")
	}
	if (Inst{Kind: isa.SIMDALU, Lanes: 3}).ActiveLanes() != 3 {
		t.Error("explicit lane count ignored")
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize(sample())
	if st.Total != 8 {
		t.Errorf("Total = %d, want 8", st.Total)
	}
	if st.MemOps != 3 {
		t.Errorf("MemOps = %d, want 3", st.MemOps)
	}
	if st.MemBytes != 48 {
		t.Errorf("MemBytes = %d, want 48", st.MemBytes)
	}
	if st.CommOps != 1 || st.CommBytes != 65536 {
		t.Errorf("Comm = %d ops/%d bytes, want 1/65536", st.CommOps, st.CommBytes)
	}
	if st.Branches != 1 || st.TakenRate != 1.0 {
		t.Errorf("branches=%d taken=%v", st.Branches, st.TakenRate)
	}
	if st.SIMDOps != 1 {
		t.Errorf("SIMDOps = %d, want 1", st.SIMDOps)
	}
	if st.PushOps != 1 {
		t.Errorf("PushOps = %d, want 1", st.PushOps)
	}
	if st.ByKind[isa.ALU] != 1 || st.ByKind[isa.Load] != 1 {
		t.Errorf("ByKind wrong: %v", st.ByKind)
	}
	if st.UniquePCs != 8 {
		t.Errorf("UniquePCs = %d, want 8", st.UniquePCs)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Total != 0 || st.TakenRate != 0 {
		t.Fatalf("empty summary wrong: %+v", st)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestEncodeDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatalf("Write(nil): %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records, want 0", len(got))
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("XXXX..........")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	if _, err := Read(bytes.NewReader(raw[:8])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// A header's record count must not size an allocation before the
// records arrive: a bare 14-byte header claiming 1<<32 records, or a
// real trace whose count exceeds its records, fails with an error.
func TestReadRejectsForgedCount(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	inflated := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(inflated[6:14], uint64(len(sample())+10000))
	bare := bytes.Clone(buf.Bytes()[:14])
	binary.LittleEndian.PutUint64(bare[6:14], 1<<32)
	for name, raw := range map[string][]byte{"bare-header": bare, "inflated-count": inflated} {
		_, err := Read(bytes.NewReader(raw))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want unexpected EOF", name, err)
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // clobber version
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version accepted")
	}
}

// quick.Value can't generate valid Insts directly (Kind gaps), so map
// arbitrary ints onto the valid space.
func instFromSeed(pc, addr uint64, size uint32, kindSel uint8, dep1, dep2 uint16, taken bool, lanes uint8) Inst {
	kinds := isa.AllKinds()
	k := kinds[int(kindSel)%len(kinds)]
	in := Inst{PC: pc, Addr: addr, Size: size, Kind: k, Dep1: dep1, Dep2: dep2, Taken: taken}
	if k.IsMem() && in.Size == 0 {
		in.Size = 4
	}
	if k.IsSIMD() {
		in.Lanes = lanes%8 + 1
	}
	if k == isa.Push {
		in.PushLevel = lanes % 3
	}
	return in
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(pc, addr uint64, size uint32, kindSel uint8, dep1, dep2 uint16, taken bool, lanes uint8) bool {
		in := instFromSeed(pc, addr, size, kindSel, dep1, dep2, taken, lanes)
		var rec [recordBytes]byte
		encodeRecord(&rec, in)
		return decodeRecord(&rec) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	s := make(Stream, 10000)
	for i := range s {
		s[i] = Inst{PC: uint64(i), Kind: isa.ALU}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	s := make(Stream, 10000)
	for i := range s {
		s[i] = Inst{PC: uint64(i), Kind: isa.ALU}
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
