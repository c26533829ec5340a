package buffercache

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simdisk"
)

// shard is one lock stripe of the cache: a mutex, the open-addressing
// page table for the pages that hash here, an LRU list, a dirty-page
// count (the shard's dirty set), and this stripe's slice of the
// statistics. Shards never take each other's locks; cross-shard work
// (frame rebalancing, aggregation) goes through the cache's global frame
// pool and the per-shard atomic gauges.
type shard struct {
	mu    sync.Mutex
	table pageTable
	lru   lruList
	dirty int   // dirty-set size; guarded by mu
	stats Stats // this stripe's counters; guarded by mu
	// free is this stripe's slice of the frame pool, refilled in batches
	// from the cache-global pool so installs on different stripes stop
	// serializing on the pool mutex. Guarded by mu.
	free []*frame
	// dirtyOrder is the arrival (dirtying) order of this stripe's dirty
	// pages — the raw queue background write-back feeds to the disk
	// scheduler, so FCFS means "first dirtied, first written" rather than
	// a sorted sweep. Entries go stale when a page is cleaned or evicted
	// outside a drain; drains and compaction drop them, matching frame to
	// entry by wbSeq generation. Guarded by mu.
	dirtyOrder []wbEntry
	// wbSeq numbers this stripe's dirtying events; each queue entry and
	// its frame carry the generation, so an entry abandoned by clean or
	// eviction never matches the page's next dirtying. Guarded by mu.
	wbSeq uint64
	// victims is the per-run eviction scratch: the dirty pages
	// installRunLocked retires in one pass, recorded in eviction order so
	// the write-backs can be billed afterwards as contiguous disk runs.
	// Reused run to run, so the steady-state evict path allocates
	// nothing. Guarded by mu.
	victims []int64
	// gathered is the per-run frame scratch for batched installs,
	// likewise reused. Guarded by mu.
	gathered []*frame
	// size mirrors table.len() so the reclaim path can pick the fullest
	// shard without taking every lock.
	size atomic.Int32
}

// poolRefillBatch is how many frames one exhausted stripe pulls from the
// global pool at a time: large enough to amortize the pool mutex out of
// miss storms, small enough that the frames a stripe strands in its
// local list stay a sliver of the budget (reclaimFrame harvests them
// back under pressure).
const poolRefillBatch = 32

// wbEntry is one dirtying event in a stripe's arrival queue: the page
// and the generation its frame was stamped with at enqueue time.
type wbEntry struct {
	page int64
	seq  uint64
}

// noteDirtyLocked records page p (frame f) in the stripe's dirty-arrival
// queue for background write-back. The caller holds s.mu and has just
// transitioned f clean->dirty. Without write-back the queue is dead
// weight, so it is not maintained.
func (s *shard) noteDirtyLocked(c *Cache, p int64, f *frame) {
	if c.wb == nil || f.inWBQueue {
		return
	}
	f.inWBQueue = true
	s.wbSeq++
	f.wbSeq = s.wbSeq
	s.dirtyOrder = append(s.dirtyOrder, wbEntry{page: p, seq: s.wbSeq})
	// Drains only trim the queue up to its first live entry, so entries
	// gone stale behind a page that sits dirty below the drain threshold
	// would otherwise accumulate for as long as traffic dirties and
	// evicts pages. Live entries == s.dirty, so once the queue outgrows
	// the dirty set by 4x (+slack for tiny sets), compact; the growth
	// needed between compactions keeps the scan amortized O(1) per note.
	if len(s.dirtyOrder) > 4*s.dirty+16 {
		s.compactWBQueueLocked()
	}
}

// compactWBQueueLocked drops the stale entries of the dirty-arrival
// queue in place, preserving the order of live ones — exactly the
// transitions a drain performs when it reaches them, with no timing
// charge. The caller holds s.mu.
func (s *shard) compactWBQueueLocked() {
	kept := s.dirtyOrder[:0]
	for _, e := range s.dirtyOrder {
		f := s.table.get(e.page)
		if f == nil || !f.inWBQueue || f.wbSeq != e.seq {
			continue
		}
		if !f.dirty {
			f.inWBQueue = false
			continue
		}
		kept = append(kept, e)
	}
	s.dirtyOrder = kept
}

// evictLocked evicts victim (which must be linked in s) writing it back
// on io's backend if dirty, and returns the write-back completion time
// (== now when clean). The caller holds s.mu and owns the
// returned-to-free-state frame.
func (s *shard) evictLocked(c *Cache, io *IO, now time.Time, victim *frame) time.Time {
	s.lru.remove(victim)
	s.table.del(victim)
	s.size.Add(-1)
	c.used.Add(-1)
	s.stats.Evictions++
	done := now
	if victim.dirty {
		done = io.evictAccess(now, simdisk.Request{
			Offset: victim.page * c.cfg.PageSize,
			Length: c.cfg.PageSize,
			Write:  true,
		})
		s.dirty--
		s.stats.DirtyFlushes++
		s.stats.BytesToDisk += c.cfg.PageSize
	}
	victim.page = -1
	victim.dirty = false
	victim.prefetched = false
	victim.inWBQueue = false
	return done
}

// retireLocked is the gather-pass half of a batched eviction: it unlinks
// victim from the LRU and the page table, keeps the dirty bookkeeping
// exact, and — when the victim was dirty — records its page in the
// shard's victim scratch for billVictimsLocked to bill afterwards.
// Clean victims need no record: they produce no disk traffic, and
// grouping dirty victims across a removed clean one changes nothing
// (the completion time of request i+1 at the group boundary equals its
// within-group value in both chaining modes). The residency gauges are
// untouched because the caller immediately reuses the frame for an
// install in the same critical section: the -1/+1 pairs the
// page-granular loop performs cancel exactly, and every gauge read in
// between sees the same value either way. The caller holds s.mu and
// owns the returned-to-free-state frame.
func (s *shard) retireLocked(c *Cache, victim *frame) {
	s.lru.remove(victim)
	s.table.del(victim)
	s.stats.Evictions++
	if victim.dirty {
		s.dirty--
		s.stats.DirtyFlushes++
		s.stats.BytesToDisk += c.cfg.PageSize
		s.victims = append(s.victims, victim.page)
	}
	victim.page = -1
	victim.dirty = false
	victim.prefetched = false
	victim.inWBQueue = false
}

// billVictimsLocked submits the write-backs of the dirty victims
// collected by retireLocked, in eviction order, each maximal contiguous
// span as one AccessRun. When advance is set each span starts at the
// running horizon (the write path's accounting, chained request to
// request); otherwise every request is issued at now (the read path's).
// The completion times and disk statistics are bit-identical to the
// per-victim Access calls evictLocked would have made. Clears the
// scratch; returns the furthest write-back horizon. The caller holds
// s.mu.
func (s *shard) billVictimsLocked(c *Cache, io *IO, now, horizon time.Time, advance bool) time.Time {
	for i := 0; i < len(s.victims); {
		j := i + 1
		for j < len(s.victims) && s.victims[j] == s.victims[j-1]+1 {
			j++
		}
		at := now
		if advance {
			at = horizon
		}
		done := io.evictRun(at, simdisk.Run{
			Offset: s.victims[i] * c.cfg.PageSize,
			Length: c.cfg.PageSize,
			Count:  int64(j - i),
			Write:  true,
			Chain:  advance,
		})
		if done.After(horizon) {
			horizon = done
		}
		i = j
	}
	s.victims = s.victims[:0]
	return horizon
}

// popFreeLocked takes a frame for shard s: from its local free list, or
// by pulling a batch from the global pool when the list is dry. Returns
// nil when both are empty (the budget is exhausted, or the remaining
// free frames are stranded on sibling stripes — reclaimFrame handles
// that). The caller holds s.mu.
func (c *Cache) popFreeLocked(s *shard) *frame {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		return f
	}
	c.poolMu.Lock()
	n := len(c.pool)
	if n == 0 {
		c.poolMu.Unlock()
		return nil
	}
	take := poolRefillBatch
	if take > n {
		take = n
	}
	moved := c.pool[n-take:]
	s.free = append(s.free, moved[:take-1]...)
	f := moved[take-1]
	c.pool = c.pool[:n-take]
	c.poolMu.Unlock()
	return f
}

// pushFree returns a frame to the global pool.
func (c *Cache) pushFree(f *frame) {
	c.poolMu.Lock()
	c.pool = append(c.pool, f)
	c.poolMu.Unlock()
}

// harvestFreeLocked pulls a free frame stranded on a sibling stripe's
// local list, preserving the global-pool invariant that a stripe only
// evicts once every frame in the budget is resident. Called with s.mu
// held; sibling locks are TryLock'd so two stripes harvesting each
// other cannot deadlock — a contended sibling is skipped (its frames
// are in active use, and the caller falls back to eviction). In a
// single-threaded run the TryLock always succeeds, so eviction
// decisions are exactly those of the pre-striping global pool.
func (c *Cache) harvestFreeLocked(s *shard) *frame {
	for _, t := range c.shards {
		if t == s || !t.mu.TryLock() {
			continue
		}
		if n := len(t.free); n > 0 {
			f := t.free[n-1]
			t.free = t.free[:n-1]
			t.mu.Unlock()
			return f
		}
		t.mu.Unlock()
	}
	return nil
}

// reclaimFrame frees a frame when the caller's stripe and the global
// pool are both exhausted: first harvest a frame stranded on a sibling
// stripe's local free list (so a frame is always found while any frame
// in the budget is free, exactly like the pre-striping global pool),
// then fall back to evicting from the most loaded stripe. Called with no
// shard lock held; the freed frame lands in the global pool for the
// caller to re-pop.
func (c *Cache) reclaimFrame(io *IO, now time.Time) (time.Time, bool) {
	if c.used.Load() < int64(c.cfg.NumPages) { // else every list is provably empty
		for _, t := range c.shards {
			t.mu.Lock()
			if n := len(t.free); n > 0 {
				f := t.free[n-1]
				t.free = t.free[:n-1]
				t.mu.Unlock()
				c.pushFree(f)
				return now, true
			}
			t.mu.Unlock()
		}
	}
	return c.reclaimRemote(io, now)
}

// reclaimRemote evicts the LRU page of the most loaded shard and returns
// the freed frame to the global pool. This is the rebalancing path: a
// hash-hot shard that outgrew its proportional share of the budget gives a
// frame back to whichever stripe is under pressure. It reports the
// write-back completion horizon and whether a frame was actually freed
// (false only when a racing Invalidate emptied the cache, or every frame
// is momentarily in flight between pool and shard).
func (c *Cache) reclaimRemote(io *IO, now time.Time) (time.Time, bool) {
	var victim *shard
	var max int32
	for _, t := range c.shards {
		if n := t.size.Load(); n > max {
			max, victim = n, t
		}
	}
	if victim == nil {
		return now, false
	}
	victim.mu.Lock()
	v := victim.lru.back()
	if v == nil { // raced with eviction/invalidate; caller rescans
		victim.mu.Unlock()
		return now, false
	}
	done := victim.evictLocked(c, io, now, v)
	victim.mu.Unlock()
	c.pushFree(v)
	return done, true
}

// isResident reports residency without touching LRU state or statistics.
func (c *Cache) isResident(page int64) bool {
	s := c.shardOf(page)
	s.mu.Lock()
	ok := s.table.get(page) != nil
	s.mu.Unlock()
	return ok
}
