package dram

import (
	"math/rand"
	"testing"

	"heteromem/internal/clock"
)

// refSubmitBatch is the plain FR-FCFS loop SubmitBatch replaced: at each
// step it rescans the pending list for the lowest-indexed request whose
// row is open in its bank, else takes the oldest arrival (lowest index
// on ties), and removes the pick by shifting the list. It is quadratic
// in the batch size and kept only as the oracle the indexed scheduler is
// diffed against.
func refSubmitBatch(c *Controller, reqs []Request) []clock.Time {
	done := make([]clock.Time, len(reqs))
	if c.cfg.Scheduling == FCFS {
		for i, r := range reqs {
			done[i] = c.service(r.Addr, r.Arrival)
		}
		return done
	}
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		pick := -1
		for pi, idx := range pending {
			ch, bk, row := c.mapAddr(reqs[idx].Addr)
			b := &c.channels[ch].banks[bk]
			if b.rowValid && b.openRow == row {
				pick = pi
				break
			}
		}
		if pick < 0 {
			pick = 0
			for pi := 1; pi < len(pending); pi++ {
				if reqs[pending[pi]].Arrival < reqs[pending[pick]].Arrival {
					pick = pi
				}
			}
		}
		idx := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		done[idx] = c.service(reqs[idx].Addr, reqs[idx].Arrival)
	}
	return done
}

// randomBatch draws a batch over a small address window, so requests
// share banks and rows often enough for row hits, conflicts and FCFS
// fallbacks to interleave. Addresses above bit 46 exercise the bank
// partition, and arrivals come from a narrow range so ties are common.
func randomBatch(rng *rand.Rand, cfg Config) []Request {
	n := 1 + rng.Intn(96)
	if rng.Intn(8) == 0 {
		n = 1 + rng.Intn(1024)
	}
	rows := uint64(1 + rng.Intn(6))
	window := rows * uint64(cfg.RowBytes*cfg.Channels*cfg.BanksPerChannel)
	arrivals := 1 + rng.Intn(8)
	reqs := make([]Request, n)
	for i := range reqs {
		addr := uint64(rng.Int63n(int64(window))) &^ uint64(cfg.LineBytes-1)
		if rng.Intn(2) == 0 {
			addr |= 1 << 46
		}
		reqs[i] = Request{Addr: addr, Arrival: clock.Time(rng.Intn(arrivals)) * 1000}
	}
	return reqs
}

// TestSubmitBatchMatchesReference diffs the indexed FR-FCFS scheduler
// against refSubmitBatch on random batches: random addresses, arrivals
// and pre-opened rows, under both policies, with and without the bank
// partition bit and on small and Table II geometries. Completion times,
// statistics and the final bank and bus state must all agree.
func TestSubmitBatchMatchesReference(t *testing.T) {
	const batches = 12000
	rng := rand.New(rand.NewSource(1))
	geoms := []Config{DDR3_1333(), DDR3_1333(), DDR3_1333()}
	geoms[1].Channels, geoms[1].BanksPerChannel = 1, 2
	geoms[2].Channels, geoms[2].BanksPerChannel = 2, 3
	for i := 0; i < batches; i++ {
		cfg := geoms[i%len(geoms)]
		if rng.Intn(2) == 0 {
			cfg.PartitionRegionBit = 0
		}
		if rng.Intn(4) == 0 {
			cfg.Scheduling = FCFS
		}
		got, want := MustNew(cfg), MustNew(cfg)
		pre := randomBatch(rng, cfg)
		for _, r := range pre[:min(len(pre), rng.Intn(8))] {
			got.Submit(r.Addr, r.Arrival)
			want.Submit(r.Addr, r.Arrival)
		}
		// Two batches in a row: the second starts from the rows the
		// first left open.
		for round := 0; round < 2; round++ {
			reqs := randomBatch(rng, cfg)
			g := got.SubmitBatch(reqs)
			w := refSubmitBatch(want, reqs)
			for j := range reqs {
				if g[j] != w[j] {
					t.Fatalf("batch %d round %d (%v, partition bit %d): request %d of %d done at %v, reference %v",
						i, round, cfg.Scheduling, cfg.PartitionRegionBit, j, len(reqs), g[j], w[j])
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("batch %d round %d: stats %+v, reference %+v", i, round, got.Stats(), want.Stats())
			}
			for ch := range got.channels {
				for bk := range got.channels[ch].banks {
					if got.channels[ch].banks[bk] != want.channels[ch].banks[bk] {
						t.Fatalf("batch %d round %d: bank %d/%d = %+v, reference %+v", i, round, ch, bk,
							got.channels[ch].banks[bk], want.channels[ch].banks[bk])
					}
				}
				if g, w := got.channels[ch].bus.FreeAt(), want.channels[ch].bus.FreeAt(); g != w {
					t.Fatalf("batch %d round %d: channel %d bus free at %v, reference %v", i, round, ch, g, w)
				}
			}
		}
	}
}

// BenchmarkTransferTime costs one block transfer through the memory
// controllers, the Fusion copy path: 16 KB is a small copy, 1 MB and
// 2 MB the sizes of matrix-mul's copies (each crosses the controllers
// twice, so TransferTime sees 2x the copy).
func BenchmarkTransferTime(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes uint64
	}{{"16KB", 16 << 10}, {"1MB", 1 << 20}, {"2MB", 2 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			c := MustNew(DDR3_1333())
			c.TransferTime(size.bytes, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset()
				c.TransferTime(size.bytes, 0)
			}
		})
	}
}
