package simdisk

import (
	"testing"
	"time"
)

func BenchmarkDiskAccessSequential(b *testing.B) {
	d := MustNew(DefaultParams())
	now := time.Unix(0, 0)
	var off int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(now, Request{Offset: off, Length: 64 << 10})
		off += 64 << 10
		if off >= d.Params().Capacity-(64<<10) {
			off = 0
		}
	}
}

func BenchmarkDiskAccessRandom(b *testing.B) {
	d := MustNew(DefaultParams())
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*2654435761) % d.Params().Capacity
		if off < 0 {
			off += d.Params().Capacity
		}
		d.Access(now, Request{Offset: off, Length: 4 << 10})
	}
}

func BenchmarkArrayAccessStriped(b *testing.B) {
	a := MustNewArray(8, 64<<10, DefaultParams())
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Access(now, Request{Offset: int64(i) * (1 << 20) % (a.Capacity() - (1 << 20)), Length: 1 << 20})
	}
}

func BenchmarkServeBatchSSTF(b *testing.B) {
	d := MustNew(DefaultParams())
	reqs := scatteredBatch(d, 32)
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ServeBatch(now, reqs, SSTF)
	}
}

// BenchmarkScheduleOrderSSTF orders a close-time flush's worth of dirty
// pages: 2,048 scattered 4 KiB writes, the size a replay_sharedq lane
// hands its write-back sweep.
func BenchmarkScheduleOrderSSTF(b *testing.B) {
	reqs := scatteredBatch(MustNew(DefaultParams()), 2048)
	for i := range reqs {
		reqs[i].Length = 4096
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheduleOrder(0, reqs, SSTF)
	}
}

// BenchmarkScheduleOrderSCAN is BenchmarkScheduleOrderSSTF under SCAN.
func BenchmarkScheduleOrderSCAN(b *testing.B) {
	reqs := scatteredBatch(MustNew(DefaultParams()), 2048)
	for i := range reqs {
		reqs[i].Length = 4096
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheduleOrder(0, reqs, SCAN)
	}
}
