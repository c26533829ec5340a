package sharedq

import (
	"testing"
	"time"

	"repro/internal/simdisk"
)

// BenchmarkQueueDispatchDeep is one dispatch out of a deep pending set:
// eight lanes, seven of which keep thousands of asynchronous write-backs
// queued while the eighth holds the gate and advances just far enough to
// release one entry per operation. Arrivals are spaced wider than any
// service time, so the device never runs ahead and the pending set stays
// at its depth. ns/op is the cost of one submit plus one dispatch.
func BenchmarkQueueDispatchDeep(b *testing.B) {
	const (
		depth = 4096
		gap   = 50 * time.Microsecond // > any MemoryBackedParams service
	)
	for _, policy := range []simdisk.SchedPolicy{simdisk.FCFS, simdisk.SSTF, simdisk.SCAN} {
		b.Run(policy.String(), func(b *testing.B) {
			q := MustNew(simdisk.MustNew(simdisk.MemoryBackedParams()), policy)
			lanes := make([]*Lane, 8)
			for i := range lanes {
				lanes[i] = q.NewLane(t0)
			}
			gate, writers := lanes[0], lanes[1:]
			rng := uint64(1)
			submit := func(k int) {
				rng = rng*6364136223846793005 + 1442695040888963407
				req := simdisk.Request{Offset: int64(rng>>43) << 12, Length: 4096, Write: true}
				writers[k%len(writers)].AccessAsync(t0.Add(time.Duration(k+1)*gap), req)
			}
			for k := 0; k < depth; k++ {
				submit(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(depth + i)
				gate.Advance(t0.Add(time.Duration(i+1)*gap + gap/2))
			}
			b.StopTimer()
			if st := q.Stats(); st.Dispatches != int64(b.N) || st.MaxPending != depth+1 {
				b.Fatalf("%d dispatches, max pending %d: want %d and %d", st.Dispatches, st.MaxPending, b.N, depth+1)
			}
		})
	}
}
