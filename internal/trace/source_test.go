package trace

import (
	"bytes"
	"reflect"
	"testing"

	"heteromem/internal/isa"
)

func sampleStream(n int) Stream {
	var s Stream
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			s = append(s, Inst{PC: uint64(i), Kind: isa.Load, Addr: uint64(i) * 64, Size: 8})
		case 1:
			s = append(s, Inst{PC: uint64(i), Kind: isa.ALU, Dep1: 1})
		case 2:
			s = append(s, Inst{PC: uint64(i), Kind: isa.Branch, Taken: i%3 == 0})
		default:
			s = append(s, Inst{PC: uint64(i), Kind: isa.Store, Addr: uint64(i) * 8, Size: 8, Dep1: 2})
		}
	}
	return s
}

func TestCursorWalksStream(t *testing.T) {
	s := sampleStream(17)
	c := NewCursor(s)
	if c.Len() != 17 {
		t.Fatalf("Len = %d, want 17", c.Len())
	}
	// Uneven batches: a short one, one that ends mid-stream, and one
	// with more room than the rest of the stream.
	var got Stream
	for _, size := range []int{1, 7, 32} {
		dst := make([]Inst, size)
		got = append(got, dst[:c.NextBatch(dst)]...)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("batches delivered %v, want %v", got, s)
	}
	if n := c.NextBatch(make([]Inst, 4)); n != 0 {
		t.Fatalf("NextBatch past end delivered %d", n)
	}
	// Len is the total, not the remainder.
	if c.Len() != 17 {
		t.Fatalf("Len after drain = %d, want 17", c.Len())
	}
	c.Reset()
	var first [1]Inst
	if n := c.NextBatch(first[:]); n != 1 || first[0] != s[0] {
		t.Fatalf("after Reset: got %+v (n=%d)", first[0], n)
	}
}

func TestCursorBindReuses(t *testing.T) {
	a, b := sampleStream(4), sampleStream(8)
	var c Cursor
	if got := Materialize(c.Bind(a)); !reflect.DeepEqual(got, a) {
		t.Fatalf("bind a: %v", got)
	}
	if got := Materialize(c.Bind(b)); !reflect.DeepEqual(got, b) {
		t.Fatalf("bind b: %v", got)
	}
}

func TestMaterializeNil(t *testing.T) {
	if got := Materialize(nil); got != nil {
		t.Fatalf("Materialize(nil) = %v", got)
	}
}

func TestSummarizeSourceMatchesSummarize(t *testing.T) {
	s := sampleStream(1000)
	want := Summarize(s)
	got := SummarizeSource(NewCursor(s))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SummarizeSource = %+v, want %+v", got, want)
	}
}

func TestWriteSourceMatchesWrite(t *testing.T) {
	s := sampleStream(4097) // crosses the decoder's chunk boundary
	var viaStream, viaSource bytes.Buffer
	if err := Write(&viaStream, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteSource(&viaSource, NewCursor(s)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaStream.Bytes(), viaSource.Bytes()) {
		t.Fatal("WriteSource output differs from Write")
	}
	back, err := Read(&viaSource)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatal("round trip through WriteSource mismatched")
	}
}

// shortSource under-delivers against its declared Len.
type shortSource struct{ n, given int }

func (s *shortSource) NextBatch(dst []Inst) int {
	k := min(len(dst), s.n-1-s.given)
	for i := range dst[:k] {
		dst[i] = Inst{Kind: isa.ALU}
	}
	s.given += k
	return k
}
func (s *shortSource) Reset()   { s.given = 0 }
func (s *shortSource) Len() int { return s.n }

func TestWriteSourceRejectsShortSource(t *testing.T) {
	if err := WriteSource(&bytes.Buffer{}, &shortSource{n: 5}); err == nil {
		t.Fatal("WriteSource accepted a source that under-delivered")
	}
}

func TestWriteSourceNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSource(&buf, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 0 {
		t.Fatalf("nil source decoded to %d records", len(s))
	}
}
