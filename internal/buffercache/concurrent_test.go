package buffercache

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/simdisk"
)

// TestShardsValidate checks the shard-count configuration surface.
func TestShardsValidate(t *testing.T) {
	for _, n := range []int{-1, 3, 6, 12, 100} {
		cfg := DefaultConfig()
		cfg.Shards = n
		if err := cfg.Validate(); err == nil {
			t.Errorf("shards=%d accepted, want power-of-two error", n)
		}
	}
	for _, n := range []int{0, 1, 2, 4, 64} {
		cfg := DefaultConfig()
		cfg.Shards = n
		if err := cfg.Validate(); err != nil {
			t.Errorf("shards=%d rejected: %v", n, err)
		}
	}
}

func TestAutoShardsIsStripedPowerOfTwo(t *testing.T) {
	n := AutoShards()
	if n < 4 || n&(n-1) != 0 {
		t.Fatalf("AutoShards() = %d, want power of two >= 4", n)
	}
	c := testCache(t, ShardedConfig())
	if c.NumShards() != n {
		t.Fatalf("ShardedConfig cache has %d shards, want %d", c.NumShards(), n)
	}
}

// TestShardedMatchesSingleShard replays one deterministic single-threaded
// workload against a 1-shard and an 8-shard cache. Without eviction
// pressure the striping must be invisible: identical durations, identical
// stats, identical residency.
func TestShardedMatchesSingleShard(t *testing.T) {
	build := func(shards int) *Cache {
		cfg := DefaultConfig() // 4096 pages: the workload below never evicts
		cfg.Shards = shards
		p := simdisk.DefaultParams()
		p.Capacity = 1 << 30
		return MustNew(cfg, simdisk.MustNew(p))
	}
	c1, c8 := build(1), build(8)

	rng := rand.New(rand.NewSource(42))
	var off int64
	for i := 0; i < 400; i++ {
		length := int64(rng.Intn(32 << 10))
		switch rng.Intn(4) {
		case 0: // sequential scan step
			off += length
		default: // bounded random jump
			off = int64(rng.Intn(1 << 24))
		}
		write := rng.Intn(4) == 0
		var d1, d8 time.Duration
		if write {
			_, d1 = c1.Write(t0, off, length)
			_, d8 = c8.Write(t0, off, length)
		} else {
			_, d1 = c1.Read(t0, off, length)
			_, d8 = c8.Read(t0, off, length)
		}
		if d1 != d8 {
			t.Fatalf("op %d (write=%v off=%d len=%d): 1-shard %v != 8-shard %v",
				i, write, off, length, d1, d8)
		}
	}
	if s1, s8 := c1.Stats(), c8.Stats(); s1 != s8 {
		t.Fatalf("stats diverged:\n1 shard: %+v\n8 shards: %+v", s1, s8)
	}
	if c1.ResidentPages() != c8.ResidentPages() {
		t.Fatalf("residency diverged: %d vs %d", c1.ResidentPages(), c8.ResidentPages())
	}
	if c1.DirtyPages() != c8.DirtyPages() {
		t.Fatalf("dirty pages diverged: %d vs %d", c1.DirtyPages(), c8.DirtyPages())
	}
	_, f1 := c1.Flush(t0)
	_, f8 := c8.Flush(t0)
	if f1 != f8 {
		t.Fatalf("flush durations diverged: %v vs %v", f1, f8)
	}
}

// TestRemoteReclaimRebalancing drives the cross-shard reclaim path
// deterministically: fill the whole budget through one stripe, then miss
// in an empty stripe. The install must steal the fullest sibling's LRU
// frame rather than exceed the global budget.
func TestRemoteReclaimRebalancing(t *testing.T) {
	cfg := smallConfig() // 8 pages
	cfg.Shards = 4
	c := testCache(t, cfg)

	// Collect 8 pages that hash to stripe 0 and one that does not.
	var hot []int64
	other := int64(-1)
	for p := int64(0); p < 4096 && (len(hot) < cfg.NumPages || other < 0); p++ {
		if c.shardIndex(p) == 0 {
			if len(hot) < cfg.NumPages {
				hot = append(hot, p)
			}
		} else if other < 0 {
			other = p
		}
	}
	if len(hot) < cfg.NumPages || other < 0 {
		t.Fatalf("hash probe failed: %d hot pages, other=%d", len(hot), other)
	}
	for _, p := range hot {
		c.Write(t0, p*cfg.PageSize, cfg.PageSize) // dirty, so reclaim must write back
	}
	if got := c.ResidentPages(); got != cfg.NumPages {
		t.Fatalf("ResidentPages = %d, want full budget %d", got, cfg.NumPages)
	}

	done, _ := c.Write(t0, other*cfg.PageSize, cfg.PageSize)
	if got := c.ResidentPages(); got != cfg.NumPages {
		t.Fatalf("budget violated after cross-stripe miss: %d pages", got)
	}
	if !c.Resident(other * cfg.PageSize) {
		t.Fatal("missed page not resident after remote reclaim")
	}
	if c.Resident(hot[0] * cfg.PageSize) {
		t.Fatal("fullest stripe's LRU page survived the reclaim")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if s.DirtyFlushes != 1 || s.BytesToDisk != cfg.PageSize {
		t.Fatalf("dirty reclaim not written back: %+v", s)
	}
	if !done.After(t0) {
		t.Fatal("write that triggered a dirty reclaim reported no stall")
	}
}

// TestConcurrentShardedAccess hammers one sharded cache from many
// goroutines — reads, writes, range flushes, and an invalidation — and
// then checks the global accounting: every page access classified exactly
// once as hit or miss, residency inside the budget and equal to the
// atomic gauge, and the per-shard dirty sets in agreement with the dirty
// flags. Run with -race this is the lock-striping correctness test.
func TestConcurrentShardedAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.NumPages = 256 // small budget: constant eviction + reclaim pressure
	cfg.PrefetchPages = 4
	c := testCache(t, cfg)

	const workers = 16
	const opsPerWorker = 400
	pagesTouched := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				off := int64(rng.Intn(1 << 26))
				length := int64(rng.Intn(16 << 10))
				first, last := c.pageRange(off, length)
				switch rng.Intn(8) {
				case 0, 1:
					c.Write(t0, off, length)
				case 2:
					c.FlushRange(t0, off, length)
					continue // flushes do not touch hit/miss counters
				case 3:
					if w == 0 && i == opsPerWorker/2 {
						c.Invalidate()
						continue
					}
					c.Read(t0, off, length)
				default:
					c.Read(t0, off, length)
				}
				if last >= first {
					pagesTouched[w] += last - first + 1
				} else {
					// Zero-length ops never reach the counters.
					continue
				}
			}
		}(w)
	}
	wg.Wait()

	var want int64
	for _, n := range pagesTouched {
		want += n
	}
	s := c.Stats()
	if got := s.Hits + s.Misses; got != want {
		t.Fatalf("hits+misses = %d, want %d touched pages", got, want)
	}
	if got := c.ResidentPages(); got > cfg.NumPages {
		t.Fatalf("ResidentPages = %d exceeds budget %d", got, cfg.NumPages)
	}
	// The atomic gauge, per-shard size mirrors, and the page tables
	// themselves must agree exactly once quiescent.
	mapped, sized := 0, 0
	dirtyFlags, dirtySets := 0, 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		mapped += sh.table.len()
		sized += int(sh.size.Load())
		dirtySets += sh.dirty
		sh.table.each(func(f *frame) {
			if f.dirty {
				dirtyFlags++
			}
		})
		if sh.lru.len() != sh.table.len() {
			t.Errorf("shard LRU has %d frames, table has %d", sh.lru.len(), sh.table.len())
		}
		sh.mu.Unlock()
	}
	if mapped != c.ResidentPages() || sized != mapped {
		t.Fatalf("residency accounting skewed: tables=%d sizes=%d gauge=%d",
			mapped, sized, c.ResidentPages())
	}
	if dirtyFlags != dirtySets || dirtySets != c.DirtyPages() {
		t.Fatalf("dirty accounting skewed: flags=%d sets=%d DirtyPages=%d",
			dirtyFlags, dirtySets, c.DirtyPages())
	}

	// Flushing everything must retire exactly the dirty set, once.
	dirtyBefore := c.DirtyPages()
	flushesBefore := s.DirtyFlushes
	c.Flush(t0)
	if got := c.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages = %d after Flush", got)
	}
	if got := c.Stats().DirtyFlushes - flushesBefore; got != int64(dirtyBefore) {
		t.Fatalf("Flush wrote back %d pages, dirty set had %d", got, dirtyBefore)
	}
}

// TestCapacityNeverExceededSharded is the sharded twin of
// TestCapacityNeverExceeded: a miss stream across all stripes stays
// inside the global budget even though no stripe has a private capacity.
func TestCapacityNeverExceededSharded(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 4
	c := testCache(t, cfg)
	for i := int64(0); i < 200; i++ {
		c.Read(t0, i*4096, 4096)
		if got := c.ResidentPages(); got > cfg.NumPages {
			t.Fatalf("resident pages %d exceed budget %d", got, cfg.NumPages)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected evictions after overflowing the cache")
	}
}
