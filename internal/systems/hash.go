package systems

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"

	"heteromem/internal/memtech"
	"heteromem/internal/xlat"
)

// Hash returns a canonical content hash of the design point, in the form
// "sha256:<hex>". The hash covers every axis that affects simulation —
// model, fabric, protocol, fault granularity, parameters — but NOT the
// display name, so two differently-named files describing the same point
// hash identically. It is the sha256 of the canonical Save encoding
// (full params object, sorted keys via struct order), making it stable
// across processes and suitable as a ledger key or point-cache key.
//
// The bytes are written by hand (appendSave) rather than by Save, whose
// encoding/json reflection cost most of a warm sweep's hashing; a shape
// the hand-written path does not cover falls back to Save. Hashing an
// invalid system returns "" — callers that already validated can ignore
// the error path.
func Hash(s System) string {
	s.Name = ""
	if s.Validate() != nil {
		return ""
	}
	var buf [1024]byte
	data, ok := appendSave(buf[:0], &s)
	if !ok {
		var err error
		if data, err = Save(s); err != nil {
			return ""
		}
	}
	sum := sha256.Sum256(data)
	const prefix = "sha256:"
	var out [len(prefix) + 2*sha256.Size]byte
	copy(out[:], prefix)
	hex.Encode(out[len(prefix):], sum[:])
	return string(out[:])
}

// appendSave appends the bytes Save(*s) writes to buf, for a valid s: the
// members of systemJSON, and of the parameter blocks under it, in field
// order, indented by two spaces, each omitempty member left out at its
// zero value, the enum axes as their names and floats as encoding/json
// formats them. It reports false, and the caller must use Save, when a
// string holds a byte json.Marshal does not copy verbatim or a float is
// not finite.
func appendSave(buf []byte, s *System) ([]byte, bool) {
	w := jsonWriter{ok: true}
	b := w.open(buf)
	b = w.str(b, "name", s.Name)
	b = w.str(b, "model", s.Model.String())
	b = w.str(b, "fabric", s.Fabric.String())
	b = w.str(b, "protocol", s.Protocol.String())
	b = w.optUint(b, "fault_granularity_bytes", s.FaultGranularityBytes)

	p := &s.Params
	b = w.key(b, "params")
	b = w.open(b)
	b = w.uint(b, "api_pci_cycles", p.APIPCICycles)
	b = w.float(b, "pci_rate_gbs", p.PCIRateGBs)
	b = w.uint(b, "api_acq_cycles", p.APIAcqCycles)
	b = w.uint(b, "api_tr_cycles", p.APITrCycles)
	b = w.uint(b, "lib_pf_cycles", p.LibPFCycles)
	b = w.float(b, "cpu_freq_mhz", p.CPUFreqMHz)
	b = w.close(b)

	if !s.MemTech.IsZero() {
		b = w.key(b, "mem_tech")
		b = w.memTech(b, &s.MemTech)
	}
	if !s.Translation.IsZero() {
		b = w.key(b, "translation")
		b = w.translation(b, &s.Translation)
	}
	b = w.close(b)
	return append(b, '\n'), w.ok
}

func (w *jsonWriter) memTech(b []byte, m *memtech.Spec) []byte {
	b = w.open(b)
	b = w.str(b, "kind", m.Kind.String())
	if h := m.HBM; h != nil {
		b = w.key(b, "hbm")
		b = w.open(b)
		b = w.optInt(b, "channels", h.Channels)
		b = w.optInt(b, "banks_per_channel", h.BanksPerChannel)
		b = w.optInt(b, "row_bytes", h.RowBytes)
		b = w.optUint(b, "tcas_ps", h.TCASPS)
		b = w.optUint(b, "trcd_ps", h.TRCDPS)
		b = w.optUint(b, "trp_ps", h.TRPPS)
		b = w.optUint(b, "tburst_ps", h.TBurstPS)
		b = w.optUint(b, "tccd_ps", h.TCCDPS)
		b = w.optUint(b, "extra_lat_ps", h.ExtraLatPS)
		b = w.close(b)
	}
	if n := m.NVM; n != nil {
		b = w.key(b, "nvm")
		b = w.open(b)
		b = w.optInt(b, "channels", n.Channels)
		b = w.optUint(b, "read_ps", n.ReadPS)
		b = w.optUint(b, "write_ps", n.WritePS)
		b = w.optUint(b, "bus_ps", n.BusPS)
		b = w.optInt(b, "write_queue_depth", n.WriteQueueDepth)
		b = w.close(b)
	}
	if c := m.DRAMCache; c != nil {
		b = w.key(b, "dram_cache")
		b = w.open(b)
		b = w.optUint(b, "size_bytes", c.SizeBytes)
		b = w.optInt(b, "ways", c.Ways)
		b = w.optUint(b, "near_ps", c.NearPS)
		b = w.optUint(b, "near_bus_ps", c.NearBusPS)
		b = w.optInt(b, "near_channels", c.NearChannels)
		b = w.optUint(b, "far_read_ps", c.FarReadPS)
		b = w.optUint(b, "far_write_ps", c.FarWritePS)
		b = w.optUint(b, "far_bus_ps", c.FarBusPS)
		b = w.optInt(b, "far_channels", c.FarChannels)
		b = w.close(b)
	}
	return w.close(b)
}

func (w *jsonWriter) translation(b []byte, t *xlat.Spec) []byte {
	b = w.open(b)
	b = w.str(b, "mmu", t.MMU.String())
	b = w.tlb(b, "cpu", t.CPU)
	b = w.tlb(b, "gpu", t.GPU)
	if k := t.Walk; k != nil {
		b = w.key(b, "walk")
		b = w.open(b)
		b = w.optInt(b, "levels", k.Levels)
		b = w.optUint(b, "level_ps", k.LevelPS)
		b = w.optInt(b, "cache_entries", k.CacheEntries)
		b = w.optUint(b, "iommu_extra_ps", k.IOMMUExtraPS)
		b = w.close(b)
	}
	if t.IOMMU != xlat.IOMMUAuto {
		b = w.str(b, "iommu", t.IOMMU.String())
	}
	return w.close(b)
}

func (w *jsonWriter) tlb(b []byte, name string, p *xlat.TLBParams) []byte {
	if p == nil {
		return b
	}
	b = w.key(b, name)
	b = w.open(b)
	b = w.optInt(b, "entries", p.Entries)
	b = w.optInt(b, "ways", p.Ways)
	b = w.optUint(b, "page_bytes", p.PageBytes)
	return w.close(b)
}

// jsonWriter appends JSON objects to a buffer in the layout
// json.MarshalIndent(v, "", "  ") gives them: a member per line,
// indented two spaces a level, a space after each colon, and "{}" for an
// object without members. It holds the layout state; the buffer goes in
// and out of every method, so a caller's stack buffer stays on the stack.
type jsonWriter struct {
	depth int
	// empty is set while the innermost open object has no member.
	empty bool
	ok    bool
}

func (w *jsonWriter) open(b []byte) []byte {
	w.depth++
	w.empty = true
	return append(b, '{')
}

func (w *jsonWriter) close(b []byte) []byte {
	w.depth--
	if !w.empty {
		b = w.newline(b)
	}
	w.empty = false
	return append(b, '}')
}

func (w *jsonWriter) newline(b []byte) []byte {
	b = append(b, '\n')
	for range w.depth {
		b = append(b, "  "...)
	}
	return b
}

// key starts a member; its value follows.
func (w *jsonWriter) key(b []byte, k string) []byte {
	if !w.empty {
		b = append(b, ',')
	}
	w.empty = false
	b = w.newline(b)
	b = append(b, '"')
	b = append(b, k...)
	return append(b, `": `...)
}

func (w *jsonWriter) str(b []byte, k, v string) []byte {
	if !verbatimJSON(v) {
		w.ok = false
	}
	b = w.key(b, k)
	b = append(b, '"')
	b = append(b, v...)
	return append(b, '"')
}

func (w *jsonWriter) uint(b []byte, k string, x uint64) []byte {
	return strconv.AppendUint(w.key(b, k), x, 10)
}

func (w *jsonWriter) optUint(b []byte, k string, x uint64) []byte {
	if x == 0 {
		return b
	}
	return w.uint(b, k, x)
}

func (w *jsonWriter) optInt(b []byte, k string, x int) []byte {
	if x == 0 {
		return b
	}
	return strconv.AppendInt(w.key(b, k), int64(x), 10)
}

// float writes f as encoding/json does: the shortest decimal that reads
// back as f, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded ("1e-7", not "1e-07").
func (w *jsonWriter) float(b []byte, k string, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.ok = false
		return b
	}
	b = w.key(b, k)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// verbatimJSON reports whether json.Marshal copies every byte of s as
// it is: printable ASCII other than the quote, the backslash and the
// three characters it escapes for HTML.
func verbatimJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}
