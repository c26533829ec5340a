package buffercache

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simdisk"
)

// opTrace is a deterministic mixed workload: sequential scans (prefetch
// + warm hits), random jumps (miss runs), rewrites (dirty transitions),
// and enough distinct pages to force evictions on a small cache.
type cacheOp struct {
	write       bool
	off, length int64
}

func mixedOps(n int) []cacheOp {
	ops := make([]cacheOp, 0, n)
	seed := int64(12345)
	next := func() int64 { // xorshift: deterministic, no math/rand dep
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	for i := 0; i < n; i++ {
		r := next()
		off := (r>>8)&0xFFFF - 1<<14 // spans negative->clamped and wide offsets
		if off < 0 {
			off = -off
		}
		op := cacheOp{off: off * 4096 / 3, length: (r&7 + 1) * 4096}
		switch i % 5 {
		case 0, 1: // sequential scan burst
			op.off = int64(i%97) * 4096
			op.length = 16 << 10
		case 2:
			op.write = true
		}
		ops = append(ops, op)
	}
	return ops
}

// runOps replays ops on a fresh cache and returns the final clock and
// stats. pageGranular runs the data operations through the per-page
// reference (reference_test.go) instead of ReadIO/WriteIO.
func runOps(t *testing.T, cfg Config, ops []cacheOp, pageGranular bool) (time.Time, Stats, int, int) {
	t.Helper()
	p := simdisk.DefaultParams()
	p.Capacity = 1 << 30
	c := MustNew(cfg, simdisk.MustNew(p))
	defer c.Close()
	read, write := c.ReadIO, c.WriteIO
	if pageGranular {
		read, write = c.readIOPages, c.writeIOPages
	}
	now := time.Unix(0, 0)
	for i, op := range ops {
		var done time.Time
		if op.write {
			done, _ = write(c.DefaultIO(), now, op.off, op.length)
		} else {
			done, _ = read(c.DefaultIO(), now, op.off, op.length)
		}
		if done.Before(now) {
			t.Fatalf("op %d moved time backwards", i)
		}
		now = done
		if i%41 == 0 {
			now, _ = c.FlushRange(now, op.off, op.length)
		}
	}
	now, _ = c.Flush(now)
	return now, c.Stats(), c.ResidentPages(), c.DirtyPages()
}

// TestBulkMatchesPageGranular is the bulk path's behavioral contract:
// the run-granular ReadIO/WriteIO perform the same residency, LRU,
// eviction, and statistics transitions in the same order as the
// per-page reference, so the simulated clock lands on the identical
// nanosecond. Swept over shard counts (1 = the paper's deterministic
// configuration) and a capacity small enough that eviction pressure,
// prefetch, and dirty write-back all engage.
func TestBulkMatchesPageGranular(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, variant := range []struct {
			name      string
			prefetch  int
			highwater int
		}{
			{"prefetch=0", 0, 0},
			{"prefetch=8", 8, 0},
			{"highwater=8", 0, 8},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, variant.name), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.NumPages = 64
				cfg.PrefetchPages = variant.prefetch
				cfg.Shards = shards
				if variant.highwater > 0 {
					// An unreachable threshold keeps the flusher goroutines
					// idle, so the only drains are the deterministic
					// synchronous high-water stalls — both paths must charge
					// them at the same shard-run boundaries.
					cfg.WritebackThreshold = 1 << 30
					cfg.WritebackHighwater = variant.highwater
				}
				ops := mixedOps(400)
				bulkEnd, bulkStats, bulkRes, bulkDirty := runOps(t, cfg, ops, false)
				pageEnd, pageStats, pageRes, pageDirty := runOps(t, cfg, ops, true)
				if !bulkEnd.Equal(pageEnd) {
					t.Fatalf("simulated clocks diverge: bulk %v vs per-page %v (delta %v)",
						bulkEnd, pageEnd, bulkEnd.Sub(pageEnd))
				}
				if bulkStats != pageStats {
					t.Fatalf("stats diverge:\nbulk:     %+v\nper-page: %+v", bulkStats, pageStats)
				}
				if bulkRes != pageRes || bulkDirty != pageDirty {
					t.Fatalf("page state diverges: resident %d vs %d, dirty %d vs %d",
						bulkRes, pageRes, bulkDirty, pageDirty)
				}
				if variant.highwater > 0 && bulkStats.WritebackThrottles == 0 {
					t.Fatal("high-water variant stalled no writers; equivalence test is vacuous")
				}
			})
		}
	}
}

// TestWarmReadZeroAllocs pins the bulk read hot path at zero
// allocations: growing the warm loop a heap object per op is a
// regression the ns/op numbers would only show indirectly.
func TestWarmReadZeroAllocs(t *testing.T) {
	c := benchCacheT(t, DefaultConfig())
	now := time.Unix(0, 0)
	c.Read(now, 0, 64<<10) // warm
	allocs := testing.AllocsPerRun(100, func() {
		c.Read(now, 0, 64<<10)
	})
	if allocs != 0 {
		t.Fatalf("warm 64 KB ReadIO allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWarmWriteZeroAllocs pins the warm write-behind path (pages
// resident and already dirty) at zero allocations.
func TestWarmWriteZeroAllocs(t *testing.T) {
	c := benchCacheT(t, DefaultConfig())
	now := time.Unix(0, 0)
	c.Write(now, 0, 64<<10) // install + dirty
	allocs := testing.AllocsPerRun(100, func() {
		c.Write(now, 0, 64<<10)
	})
	if allocs != 0 {
		t.Fatalf("warm 64 KB WriteIO allocates %.1f objects/op, want 0", allocs)
	}
}

func benchCacheT(t *testing.T, cfg Config) *Cache {
	t.Helper()
	p := simdisk.DefaultParams()
	p.Capacity = 1 << 30
	return MustNew(cfg, simdisk.MustNew(p))
}

// TestBulkSpansShards exercises a read whose page run crosses every
// stripe boundary: per-shard runs must cover the range exactly once.
func TestBulkSpansShards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.NumPages = 1024
	cfg.PrefetchPages = 0
	c := benchCacheT(t, cfg)
	now := time.Unix(0, 0)
	c.Read(now, 0, 1<<20) // 256 pages scattered over 8 stripes
	s := c.Stats()
	if s.Misses != 256 {
		t.Fatalf("Misses = %d, want 256", s.Misses)
	}
	if got := c.ResidentPages(); got != 256 {
		t.Fatalf("ResidentPages = %d, want 256", got)
	}
	// All warm now: one more pass must be pure hits.
	c.Read(now, 0, 1<<20)
	s2 := c.Stats()
	if s2.Misses != 256 || s2.Hits != s.Hits+256 {
		t.Fatalf("warm pass not pure hits: %+v -> %+v", s, s2)
	}
}

// TestPoolStripingCapacity floods every stripe from a small budget:
// striped free lists must never let residency exceed the global frame
// budget, and stranded frames must be harvested rather than evicting
// early (hits+misses conserve, evictions equal overflow).
func TestPoolStripingCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.NumPages = 48 // less than shards*poolRefillBatch: stranding certain
	cfg.PrefetchPages = 0
	c := benchCacheT(t, cfg)
	now := time.Unix(0, 0)
	for i := int64(0); i < 400; i++ {
		c.Read(now, i*4096, 4096)
		if got := c.ResidentPages(); got > cfg.NumPages {
			t.Fatalf("resident pages %d exceed budget %d", got, cfg.NumPages)
		}
	}
	s := c.Stats()
	if s.Evictions != 400-int64(cfg.NumPages) {
		t.Fatalf("Evictions = %d, want %d (evict only once the whole budget is resident)",
			s.Evictions, 400-int64(cfg.NumPages))
	}
}
