package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"heteromem/internal/isa"
)

// Binary trace format:
//
//	header:  magic "HMTR" | version uint16 | record count uint64
//	records: PC u64 | Addr u64 | Size u32 | Kind u8 | flags u8 | Dep1 u16 | Dep2 u16
//
// where flags bit0 = Taken, bits 1..2 = PushLevel, and bits 4..7 = Lanes.
// All integers are little-endian. The fixed 26-byte record keeps decoding
// allocation-free.
const (
	magic       = "HMTR"
	version     = uint16(1)
	recordBytes = 26
)

// Write serialises the stream to w in the binary trace format.
func Write(w io.Writer, s Stream) error {
	return WriteSource(w, NewCursor(s))
}

// WriteSource serialises src to w in the binary trace format, pulling
// it in small batches: the trace is never buffered whole in memory, so a
// multi-million-instruction generator streams straight to disk. The
// record count in the header is src.Len(); src must deliver exactly that
// many instructions from its current position (a freshly opened or Reset
// source does).
func WriteSource(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	n := 0
	if src != nil {
		n = src.Len()
	}
	var hdr [10]byte
	binary.LittleEndian.PutUint16(hdr[0:2], version)
	binary.LittleEndian.PutUint64(hdr[2:10], uint64(n))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordBytes]byte
	written := 0
	if src != nil {
		var buf [batchLen]Inst
		for {
			k := src.NextBatch(buf[:])
			if k == 0 {
				break
			}
			for _, in := range buf[:k] {
				encodeRecord(&rec, in)
				if _, err := bw.Write(rec[:]); err != nil {
					return err
				}
			}
			written += k
		}
	}
	if written != n {
		return fmt.Errorf("trace: source delivered %d records, header promised %d", written, n)
	}
	return bw.Flush()
}

func encodeRecord(rec *[recordBytes]byte, in Inst) {
	binary.LittleEndian.PutUint64(rec[0:8], in.PC)
	binary.LittleEndian.PutUint64(rec[8:16], in.Addr)
	binary.LittleEndian.PutUint32(rec[16:20], in.Size)
	rec[20] = uint8(in.Kind)
	var flags uint8
	if in.Taken {
		flags |= 1
	}
	flags |= (in.PushLevel & 3) << 1
	flags |= in.Lanes << 4
	rec[21] = flags
	binary.LittleEndian.PutUint16(rec[22:24], in.Dep1)
	binary.LittleEndian.PutUint16(rec[24:26], in.Dep2)
}

func decodeRecord(rec *[recordBytes]byte) Inst {
	flags := rec[21]
	return Inst{
		PC:        binary.LittleEndian.Uint64(rec[0:8]),
		Addr:      binary.LittleEndian.Uint64(rec[8:16]),
		Size:      binary.LittleEndian.Uint32(rec[16:20]),
		Kind:      isa.Kind(rec[20]),
		Taken:     flags&1 != 0,
		PushLevel: flags >> 1 & 3,
		Lanes:     flags >> 4,
		Dep1:      binary.LittleEndian.Uint16(rec[22:24]),
		Dep2:      binary.LittleEndian.Uint16(rec[24:26]),
	}
}

// Read deserialises a stream written by Write. It consumes exactly the
// stream's bytes from r — no read-ahead — so traces can be embedded in
// larger files (the workload package's program format relies on this).
func Read(r io.Reader) (Stream, error) {
	var head [4 + 10]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[0:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[0:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(head[6:14])
	const maxReasonable = 1 << 32
	if count > maxReasonable {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	if count == 0 {
		return nil, nil
	}
	// Decode in chunks: exact consumption with few large reads. The
	// header's count is not trusted for the allocation: the stream grows
	// as records arrive, so a forged count fails at the first missing
	// record instead of reserving memory for records that never come.
	const chunkRecords = 4096
	out := make(Stream, 0, min(count, chunkRecords))
	buf := make([]byte, min(count, chunkRecords)*recordBytes)
	var rec [recordBytes]byte
	for done := uint64(0); done < count; {
		n := count - done
		if n > chunkRecords {
			n = chunkRecords
		}
		chunk := buf[:n*recordBytes]
		if _, err := io.ReadFull(r, chunk); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more records
			}
			return nil, fmt.Errorf("trace: record %d: %w", done, err)
		}
		for i := uint64(0); i < n; i++ {
			copy(rec[:], chunk[i*recordBytes:])
			out = append(out, decodeRecord(&rec))
		}
		done += n
	}
	return out, nil
}
