// The page-granular reference the bulk data path (bulk.go) must
// reproduce: the original one-page-at-a-time read and write loops, a
// mutex round-trip, table lookup and LRU splice per page.
// TestBulkMatchesPageGranular replays one workload through both and
// requires the same clock, statistics and page state to the nanosecond.
// The reference ships with the tests, not the binaries: nothing outside
// them runs it.
package buffercache

import (
	"runtime"
	"time"

	"repro/internal/simdisk"
)

// readIOPages is the page-granular read path: one lock acquisition,
// map lookup, and LRU splice per page. ReadIO (bulk.go) performs the
// same transitions run-at-a-time.
func (c *Cache) readIOPages(io *IO, now time.Time, offset, length int64) (time.Time, time.Duration) {
	if length < 0 {
		length = 0
	}
	done := now
	first, last := c.pageRange(offset, length)
	if last < first { // zero-length read: lookup cost only
		d := now.Add(c.cfg.HitOverhead)
		return d, d.Sub(now)
	}

	sequential := io.noteRead(first, last)

	// Walk the page range, coalescing misses into contiguous disk runs.
	page := first
	for page <= last {
		if c.touchHit(page) {
			done = done.Add(c.copyCost(c.cfg.PageSize))
			page++
			continue
		}
		// Miss: extend the run over consecutive missing pages, which may
		// span stripes.
		runStart := page
		page++
		for page <= last && !c.isResident(page) {
			page++
		}
		runEnd := page - 1 // inclusive
		nDemand := runEnd - runStart + 1
		rs := c.shardOf(runStart)
		rs.mu.Lock()
		rs.stats.Misses += nDemand
		rs.stats.BytesFromDisk += nDemand * c.cfg.PageSize
		rs.mu.Unlock()
		diskDone, _ := io.backend.Access(done, simdisk.Request{
			Offset: runStart * c.cfg.PageSize,
			Length: nDemand * c.cfg.PageSize,
		})
		done = diskDone
		for p := runStart; p <= runEnd; p++ {
			c.installPage(io, done, p, false, false, false)
		}
		// Asynchronous read-ahead: queue the next window behind the
		// demand fetch. It occupies the disk but is not charged to this
		// read — later sequential reads find the pages resident.
		if sequential && c.cfg.PrefetchPages > 0 {
			pfStart := runEnd + 1
			pfEnd := runEnd + int64(c.cfg.PrefetchPages)
			io.evictAccess(diskDone, simdisk.Request{
				Offset: pfStart * c.cfg.PageSize,
				Length: (pfEnd - pfStart + 1) * c.cfg.PageSize,
			})
			var brought int64
			for p := pfStart; p <= pfEnd; p++ {
				if fresh, _, _ := c.installPage(io, diskDone, p, false, true, false); fresh {
					brought++
				}
			}
			if brought > 0 {
				rs.mu.Lock()
				rs.stats.PrefetchedIn += brought
				rs.stats.BytesFromDisk += brought * c.cfg.PageSize
				rs.mu.Unlock()
			}
		}
		// Copy the demanded part of the run to the caller.
		done = done.Add(c.copyCost(nDemand * c.cfg.PageSize))
	}
	return done, done.Sub(now)
}

// writeIOPages is the page-granular write path; WriteIO (bulk.go)
// performs the same transitions run-at-a-time. The dirty
// high-water stall is checked at the same shard-run boundaries as the
// bulk path, so the two paths stay bit-identical with throttling on.
func (c *Cache) writeIOPages(io *IO, now time.Time, offset, length int64) (time.Time, time.Duration) {
	if length < 0 {
		length = 0
	}
	done := now
	first, last := c.pageRange(offset, length)
	if last < first {
		d := now.Add(c.cfg.HitOverhead)
		return d, d.Sub(now)
	}
	for page := first; page <= last; {
		si := c.shardIndex(page)
		runEnd := c.shardRunEnd(si, page, last)
		runDirtied := false
		for ; page <= runEnd; page++ {
			_, dirtied, horizon := c.installPage(io, done, page, c.cfg.WriteBehind, false, true)
			runDirtied = runDirtied || dirtied
			if horizon.After(done) {
				done = horizon // eviction write-back stalled us
			}
		}
		if runDirtied && c.cfg.WritebackHighwater > 0 {
			s := c.shards[si]
			s.mu.Lock()
			dc := s.dirty
			s.mu.Unlock()
			if dc >= c.cfg.WritebackHighwater {
				done = c.stallHighwater(si, done)
			}
		}
	}
	done = done.Add(c.copyCost(length))
	if !c.cfg.WriteBehind {
		diskDone, _ := io.backend.Access(done, simdisk.Request{Offset: offset, Length: length, Write: true})
		s := c.shardOf(first)
		s.mu.Lock()
		s.stats.BytesToDisk += length
		s.mu.Unlock()
		done = diskDone
	}
	return done, done.Sub(now)
}

// touchHit reports whether page is resident; if so it records the hit and
// freshens the page's LRU position. The bulk path uses lookupRun.
func (c *Cache) touchHit(page int64) bool {
	s := c.shardOf(page)
	s.mu.Lock()
	f := s.table.get(page)
	if f == nil {
		s.mu.Unlock()
		return false
	}
	s.stats.Hits++
	if f.prefetched {
		s.stats.PrefetchHits++
		f.prefetched = false
	}
	s.lru.moveToFront(f)
	s.mu.Unlock()
	return true
}

// installPage makes page resident in its shard, evicting under memory
// pressure: first the stripe's free frames, then this shard's own LRU,
// and as a last resort a harvest or reclaim from a sibling. Evictions
// performed on behalf of this install charge io's backend view. It
// reports whether the page was newly installed (false when it was
// already resident), whether it transitioned clean->dirty, and the
// completion horizon of any dirty write-back performed (== now when
// nothing had to be written back). When count is set the lookup is
// charged to the shard's hit/miss counters, as the write path requires.
// Dirtying a page past the write-back threshold signals the shard's
// background flusher. The bulk path uses installRun.
func (c *Cache) installPage(io *IO, now time.Time, page int64, dirty, prefetched, count bool) (fresh, dirtied bool, horizon time.Time) {
	si := c.shardIndex(page)
	s := c.shards[si]
	horizon = now
	for {
		s.mu.Lock()
		if f := s.table.get(page); f != nil {
			if count {
				s.stats.Hits++
			}
			if dirty && !f.dirty {
				f.dirty = true
				s.dirty++
				s.noteDirtyLocked(c, page, f)
				dirtied = true
			}
			dirtyCount := s.dirty
			s.lru.moveToFront(f)
			s.mu.Unlock()
			if dirtied {
				c.maybeSignalWriteback(si, dirtyCount, now)
			}
			return false, dirtied, horizon
		}
		// used == NumPages: every frame is resident, so skip the pool lock
		// and sibling sweep (they are provably empty) and evict directly.
		var f *frame
		if c.used.Load() < int64(c.cfg.NumPages) {
			if f = c.popFreeLocked(s); f == nil {
				f = c.harvestFreeLocked(s)
			}
		}
		if f == nil {
			if victim := s.lru.back(); victim != nil {
				done := s.evictLocked(c, io, now, victim)
				if done.After(horizon) {
					horizon = done
				}
				f = victim
			}
		}
		if f != nil {
			if count {
				s.stats.Misses++
			}
			f.page = page
			f.dirty = dirty
			f.prefetched = prefetched
			s.table.put(f)
			s.lru.pushFront(f)
			s.size.Add(1)
			c.used.Add(1)
			if dirty {
				s.dirty++
				s.noteDirtyLocked(c, page, f)
				dirtied = true
			}
			dirtyCount := s.dirty
			s.mu.Unlock()
			if dirty {
				c.maybeSignalWriteback(si, dirtyCount, now)
			}
			return true, dirtied, horizon
		}
		// Budget exhausted and this stripe holds nothing to evict: pull a
		// frame back from a sibling, then retry the install.
		s.mu.Unlock()
		done, ok := c.reclaimFrame(io, now)
		if done.After(horizon) {
			horizon = done
		}
		if !ok {
			runtime.Gosched() // frames are in flight; let holders finish
		}
	}
}
