package dram

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"heteromem/internal/clock"
)

// hbm is memtech.DefaultHBM's controller geometry and timing (memtech
// imports this package, so the test restates it).
func hbm() Config {
	return Config{
		Channels: 16, BanksPerChannel: 8, LineBytes: 64, RowBytes: 2048,
		TCAS: 15000, TRCD: 15000, TRP: 15000, TBurst: 2500, TCCD: 2000,
	}
}

// transferGeometries are the controller shapes the transfer path is
// checked on: Table II's DDR3, a one-channel two-bank and a two-channel
// three-bank controller (an odd bank count leaves a bank outside both
// partition halves), and the HBM stack.
func transferGeometries() []Config {
	small, odd := DDR3_1333(), DDR3_1333()
	small.Channels, small.BanksPerChannel = 1, 2
	odd.Channels, odd.BanksPerChannel = 2, 3
	return []Config{DDR3_1333(), small, odd, hbm()}
}

// transferRequests is the request list TransferTime stands for: every
// line of a size-byte block, all arriving at now.
func transferRequests(cfg Config, size uint64, now clock.Time) []Request {
	lines := (size + uint64(cfg.LineBytes) - 1) / uint64(cfg.LineBytes)
	reqs := make([]Request, lines)
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(i) * uint64(cfg.LineBytes), Arrival: now}
	}
	return reqs
}

// sameController reports the first difference between two controllers'
// counts, banks and buses, or "" if they agree.
func sameController(got, want *Controller) string {
	if got.Stats() != want.Stats() || got.bytes != want.bytes {
		return fmt.Sprintf("stats %+v and %d bytes, reference %+v and %d bytes", got.Stats(), got.bytes, want.Stats(), want.bytes)
	}
	for ch := range got.buses {
		for bk, g := range got.channelBanks(ch) {
			if w := want.channelBanks(ch)[bk]; g != w {
				return fmt.Sprintf("bank %d/%d = %+v, reference %+v", ch, bk, g, w)
			}
		}
		if g, w := got.buses[ch].FreeAt(), want.buses[ch].FreeAt(); g != w {
			return fmt.Sprintf("channel %d bus free at %v, reference %v", ch, g, w)
		}
	}
	return ""
}

// transferMatches runs one transfer on got and the materialised request
// list through SubmitBatch on want, and reports the first difference.
func transferMatches(got, want *Controller, size uint64, now clock.Time) string {
	latest := now
	for _, t := range want.SubmitBatch(transferRequests(want.cfg, size, now)) {
		latest = clock.Max(latest, t)
	}
	if done := got.TransferTime(size, now); done != latest {
		return fmt.Sprintf("done at %v, reference %v", done, latest)
	}
	return sameController(got, want)
}

// TestTransferTimeMatchesSubmitBatch diffs TransferTime against
// SubmitBatch on the request list it stands for. Each case draws a
// geometry (rows sometimes shrunk so a transfer crosses several), a
// policy, a partition bit (none, Table II's bit 46, or a low bit that
// flips inside the transfer) and prior Submit traffic that leaves rows
// open inside and beyond the transfer's rows, then runs two transfers
// back to back. Completion times, statistics, bytes and every bank and
// bus must agree.
func TestTransferTimeMatchesSubmitBatch(t *testing.T) {
	const cases = 6000
	rng := rand.New(rand.NewSource(1))
	geoms := transferGeometries()
	for i := 0; i < cases; i++ {
		cfg := geoms[i%len(geoms)]
		if rng.Intn(2) == 0 {
			cfg.RowBytes = cfg.LineBytes << rng.Intn(4)
		}
		if rng.Intn(4) == 0 {
			cfg.Scheduling = FCFS
		}
		switch rng.Intn(3) {
		case 0:
			cfg.PartitionRegionBit = 0
		case 1:
			cfg.PartitionRegionBit = 46
		default:
			cfg.PartitionRegionBit = uint(6 + rng.Intn(10))
		}
		rowLines := cfg.Channels * cfg.BanksPerChannel * cfg.RowBytes / cfg.LineBytes
		maxLines := min(3*rowLines, 1000)
		if rng.Intn(100) == 0 {
			maxLines = 5000 // past the first row of the DDR3 and HBM geometries
		}
		got, want := MustNew(cfg), MustNew(cfg)
		window := 4 * int64(rowLines*cfg.LineBytes)
		for k := rng.Intn(12); k > 0; k-- {
			addr := uint64(rng.Int63n(window))
			if rng.Intn(8) == 0 {
				addr |= 1 << 46
			}
			at := clock.Time(rng.Intn(50_000))
			got.Submit(addr, at)
			want.Submit(addr, at)
		}
		now := clock.Time(rng.Intn(100_000))
		for round := 0; round < 2; round++ {
			size := uint64(1 + rng.Intn(maxLines*cfg.LineBytes))
			if diff := transferMatches(got, want, size, now); diff != "" {
				t.Fatalf("case %d round %d (%d×%d, %d-byte rows, %v, partition bit %d), %d-byte transfer at %v: %s",
					i, round, cfg.Channels, cfg.BanksPerChannel, cfg.RowBytes, cfg.Scheduling, cfg.PartitionRegionBit, size, now, diff)
			}
			now = now.Add(clock.Duration(rng.Intn(200_000)))
		}
	}
}

// FuzzTransferTime is TestTransferTimeMatchesSubmitBatch under fuzzed
// inputs: the transfer size, a geometry (one of transferGeometries, its
// rows shrunk by up to 2^7), the policy, the partition bit and prior
// Submit traffic, four bytes a request (its line within twice the
// transfer, and its arrival).
func FuzzTransferTime(f *testing.F) {
	f.Add(uint32(64<<10), uint8(0), false, uint8(46), []byte{0, 0, 0, 1, 0, 8, 0, 9})
	f.Add(uint32(5000), uint8(0x13), true, uint8(9), []byte{})
	f.Add(uint32(100_000), uint8(0x21), false, uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint32(1), uint8(0x72), false, uint8(63), []byte{0xff, 0xff, 0xff, 0xff})
	geoms := transferGeometries()
	f.Fuzz(func(t *testing.T, size uint32, geom uint8, fcfs bool, bit uint8, prior []byte) {
		cfg := geoms[int(geom&3)]
		cfg.RowBytes = max(cfg.RowBytes>>(geom>>4&7), cfg.LineBytes)
		if fcfs {
			cfg.Scheduling = FCFS
		}
		cfg.PartitionRegionBit = uint(bit)
		bytes := uint64(size) % (256 << 10)
		got, want := MustNew(cfg), MustNew(cfg)
		lines := bytes/uint64(cfg.LineBytes) + 1
		for ; len(prior) >= 4; prior = prior[4:] {
			v := binary.LittleEndian.Uint32(prior)
			addr := uint64(v>>8) % (2 * lines) * uint64(cfg.LineBytes)
			at := clock.Time(v&0xff) * 1000
			got.Submit(addr, at)
			want.Submit(addr, at)
		}
		if diff := transferMatches(got, want, bytes, 300_000); diff != "" {
			t.Fatalf("%d-byte transfer on %+v: %s", bytes, cfg, diff)
		}
	})
}

// BenchmarkTransferTime costs one block transfer through the memory
// controllers, the Fusion copy path: 16 KB is a small copy, 1 MB and
// 2 MB the sizes of matrix-mul's copies (each crosses the controllers
// twice, so TransferTime sees 2x the copy). Each copy starts when the
// previous one ends.
func BenchmarkTransferTime(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"16KB", 16 << 10}, {"1MB", 1 << 20}, {"2MB", 2 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			c := MustNew(DDR3_1333())
			at := c.TransferTime(size.bytes, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at = c.TransferTime(size.bytes, at)
			}
		})
	}
}
