package netsim

import (
	"testing"
	"time"
)

func BenchmarkSend(b *testing.B) {
	nw := MustNew(16, LANParams())
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(now, i%16, (i+1)%16, 64<<10)
	}
}
