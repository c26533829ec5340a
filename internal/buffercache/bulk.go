// Bulk, run-granular cache operations: the hot data path.
//
// The page-granular reference (touchHit / isResident / installPage, kept
// in reference_test.go for the equivalence tests) pays a full mutex
// round-trip, map lookup, LRU splice, and floating-point copy-cost
// division per 4 KB page — a warm 64 KB read is 16 lock acquisitions,
// and a miss run looks every page up twice. The bulk path partitions
// the page range into per-shard runs and processes each run under a
// single lock acquisition: one stripe hash per run, one batched hit
// count and LRU refresh, and the residency frontier returned from the
// lookup so miss runs are never probed twice. The warm loop charges the
// per-page copy cost precomputed at New, so it does integer adds only.
//
// Behavioral contract: the bulk path performs the same residency, LRU,
// eviction, and statistics transitions in the same order as the
// page-granular path, so simulated timing is bit-identical —
// TestBulkMatchesPageGranular (and tracesim's replay pins) pin it.
package buffercache

import (
	"runtime"
	"time"

	"repro/internal/simdisk"
)

// shardRunEnd returns the last page of the maximal run [page..last]
// whose pages all hash to shard si. With a single stripe that is the
// whole range; with more, fibonacci hashing scatters consecutive pages,
// so runs shrink toward single pages (locking then is the scalability
// mechanism, not batching).
func (c *Cache) shardRunEnd(si int, page, last int64) int64 {
	if c.shardShift == 0 {
		return last
	}
	end := page
	for end < last && c.shardIndex(end+1) == si {
		end++
	}
	return end
}

// lookupRun consumes the leading resident pages of [from..to] (all in
// shard s) as hits — batched statistics, per-page LRU refresh in
// ascending order, exactly the transitions touchHit performs — then
// scans the non-resident extent that follows, all under one lock
// acquisition. It returns the number of leading hits, the last page of
// the following miss extent (missEnd < from+nHits when there is none),
// and whether the extent ran off the end of the run still missing (the
// caller then extends it into the next shard run).
func (s *shard) lookupRun(from, to int64) (nHits, missEnd int64, open bool) {
	s.mu.Lock()
	p := s.consumeHitsLocked(from, to)
	nHits = p - from
	if p > to {
		s.mu.Unlock()
		return nHits, p - 1, false
	}
	p = s.scanMissLocked(p, to)
	s.mu.Unlock()
	return nHits, p - 1, p > to
}

// scanMissLocked advances from the first page of [from..to] over the
// consecutive non-resident pages and returns the first resident one
// (to+1 when the whole span misses): the one residency-probe loop every
// miss-extent scan shares. The caller holds s.mu.
func (s *shard) scanMissLocked(from, to int64) int64 {
	p := from
	for p <= to {
		if s.table.get(p) != nil {
			break
		}
		p++
	}
	return p
}

// consumeHitsLocked touches the leading resident pages of [from..to] as
// hits and returns the first non-resident page (to+1 when the whole
// span is warm). The caller holds s.mu.
func (s *shard) consumeHitsLocked(from, to int64) int64 {
	p := from
	var pfHits int64
	for p <= to {
		f := s.table.get(p)
		if f == nil {
			break
		}
		if f.prefetched {
			pfHits++
			f.prefetched = false
		}
		s.lru.moveToFront(f)
		p++
	}
	if n := p - from; n > 0 {
		s.stats.Hits += n
		s.stats.PrefetchHits += pfHits
	}
	return p
}

// scanMissRun extends a miss run into [from..to] (all in shard s): it
// returns the last consecutive non-resident page (from-1 when the first
// page is resident) and whether the scan ran off the end of the run
// still missing. One lock acquisition replaces a per-page isResident
// probe.
func (s *shard) scanMissRun(from, to int64) (missEnd int64, open bool) {
	s.mu.Lock()
	p := s.scanMissLocked(from, to)
	s.mu.Unlock()
	return p - 1, p > to
}

// installRun makes [from..to] (all in shard s, ascending) resident with
// the same per-page transitions as installPage; see installRunLocked.
// It returns the count of freshly installed pages, the stripe's dirty
// count after the run, whether any page transitioned clean->dirty, and
// the final eviction/write-back horizon. preMiss folds a demand fetch's
// miss accounting (preMiss misses and their disk bytes, booked to this
// stripe) into the install's critical section, so the cold path does not
// pay a separate lock round-trip just to count.
func (s *shard) installRun(c *Cache, io *IO, now time.Time, from, to int64, dirty, prefetched, count, advance bool, preMiss int64) (fresh int64, dirtyCount int, dirtied bool, horizon time.Time) {
	s.mu.Lock()
	if preMiss > 0 {
		s.stats.Misses += preMiss
		s.stats.BytesFromDisk += preMiss * c.cfg.PageSize
	}
	fresh, dirtied, horizon = s.installRunLocked(c, io, now, from, to, dirty, prefetched, count, advance)
	dirtyCount = s.dirty
	s.mu.Unlock()
	return fresh, dirtyCount, dirtied, horizon
}

// installRunLocked makes [from..to] (all in shard s, ascending)
// resident: already-resident pages are touched (and dirtied when
// asked); each streak of missing pages is installed chunk-at-a-time —
// frames are gathered in one pass (the stripe's free list first, with
// the same per-frame pool-refill decisions the page-granular loop
// makes, then the stripe's own LRU victims, retired together), the
// retired victims' write-backs are billed as contiguous disk runs
// (billVictimsLocked), and the pages are installed. Only when the
// budget is exhausted and the stripe holds nothing to evict does it
// drop the lock to reclaim from a sibling, exactly as installPage does.
// When advance is set evictions are charged at the running write-back
// horizon (the write path's accounting); otherwise at now (the read
// path's). The victim choices, their billing order and times, and every
// statistic are identical to the page-at-a-time loop — the batching
// removes lock and disk-model round-trips, not one transition.
//
// The caller holds s.mu; the starved reclaim path may drop and retake
// it, so table state is re-probed afterwards (the rescan from p).
func (s *shard) installRunLocked(c *Cache, io *IO, now time.Time, from, to int64, dirty, prefetched, count, advance bool) (fresh int64, dirtied bool, horizon time.Time) {
	horizon = now
	p := from
	for p <= to {
		if f := s.table.get(p); f != nil {
			if count {
				s.stats.Hits++
			}
			if dirty && !f.dirty {
				f.dirty = true
				s.dirty++
				s.noteDirtyLocked(c, p, f)
				dirtied = true
			}
			s.lru.moveToFront(f)
			p++
			continue
		}
		// Miss streak: extend over the consecutive non-resident pages of
		// the run, then fill it chunk by chunk — each chunk as many
		// frames as the free list and this stripe's LRU can supply
		// without dropping the lock.
		mEnd := s.scanMissLocked(p, to) - 1
		for p <= mEnd {
			s.gathered = s.gathered[:0]
			need := mEnd - p + 1
			for int64(len(s.gathered)) < need {
				// used == NumPages means every frame in the budget is
				// resident: the pool and every stripe's free list are
				// provably empty, so the steady eviction state skips the
				// pool lock and the sibling TryLock sweep entirely.
				var f *frame
				if c.used.Load() < int64(c.cfg.NumPages) {
					if f = c.popFreeLocked(s); f == nil {
						f = c.harvestFreeLocked(s)
					}
				}
				if f != nil {
					// A frame from the pool becomes resident: account it
					// now, where the page-granular loop accounts it right
					// after acquiring the frame. A retired victim needs no
					// accounting — its -1/+1 would cancel within this
					// critical section (see retireLocked).
					s.size.Add(1)
					c.used.Add(1)
				} else {
					victim := s.lru.back()
					if victim == nil {
						break // stripe empty: reclaim below
					}
					s.retireLocked(c, victim)
					f = victim
				}
				s.gathered = append(s.gathered, f)
			}
			if len(s.gathered) == 0 {
				// Budget exhausted and nothing local to evict: the sibling
				// harvest/reclaim takes other stripes' locks, so drop ours
				// and re-probe, as installPage does.
				s.mu.Unlock()
				at := now
				if advance {
					at = horizon
				}
				done, ok := c.reclaimFrame(io, at)
				if done.After(horizon) {
					horizon = done
				}
				if !ok {
					runtime.Gosched() // frames are in flight; let holders finish
				}
				s.mu.Lock()
				break // residency may have changed: rescan from p
			}
			horizon = s.billVictimsLocked(c, io, now, horizon, advance)
			for _, f := range s.gathered {
				if count {
					s.stats.Misses++
				}
				f.page = p
				f.dirty = dirty
				f.prefetched = prefetched
				s.table.put(f)
				s.lru.pushFront(f)
				if dirty {
					s.dirty++
					s.noteDirtyLocked(c, p, f)
					dirtied = true
				}
				fresh++
				p++
			}
		}
	}
	return fresh, dirtied, horizon
}

// installRange installs [first..last] by per-shard runs, returning the
// number of freshly installed pages and the furthest eviction horizon.
// The install order, and so every eviction decision, matches the
// page-granular loop page for page. preMiss is booked to the first run's
// stripe (the stripe of page `first` — where the separate accounting
// step used to book it) under that run's install lock.
func (c *Cache) installRange(io *IO, now time.Time, first, last int64, dirty, prefetched, count, advance bool, preMiss int64) (fresh int64, horizon time.Time) {
	horizon = now
	page := first
	for page <= last {
		si := c.shardIndex(page)
		runEnd := c.shardRunEnd(si, page, last)
		at := now
		if advance {
			at = horizon
		}
		n, dc, dirtied, h := c.shards[si].installRun(c, io, at, page, runEnd, dirty, prefetched, count, advance, preMiss)
		preMiss = 0
		fresh += n
		if h.After(horizon) {
			horizon = h
		}
		if dirtied {
			c.maybeSignalWriteback(si, dc, at)
		}
		page = runEnd + 1
	}
	return fresh, horizon
}

// ReadIO simulates reading [offset, offset+length) on io's backend view
// and stream state. Resident pages cost memory copies; missing pages are
// fetched from the backend in contiguous runs, optionally extended by
// the read-ahead window when the access pattern is sequential. This is
// the bulk hot path: warm spans cost one lock acquisition per shard run
// and integer time arithmetic only.
func (c *Cache) ReadIO(io *IO, now time.Time, offset, length int64) (time.Time, time.Duration) {
	if length < 0 {
		length = 0
	}
	first, last := c.pageRange(offset, length)
	if last < first { // zero-length read: lookup cost only
		d := now.Add(c.cfg.HitOverhead)
		return d, d.Sub(now)
	}

	sequential := io.noteRead(first, last)

	if c.shardShift == 0 && io.async == nil {
		// Single-stripe configuration (the paper default): the whole
		// range lives in shard 0, so the merged path below does lookup,
		// miss accounting, fill, install, and read-ahead under one lock
		// acquisition instead of one per phase. Shared-queue backends
		// opt out: their demand Access blocks on the event merge, and
		// blocking while holding the stripe lock would stall every other
		// lane's cache work behind this lane's turn in the queue.
		return c.readIOOneShard(io, now, first, last, sequential)
	}

	done := now
	page := first
	for page <= last {
		si := c.shardIndex(page)
		runEnd := c.shardRunEnd(si, page, last)
		nHits, missEnd, open := c.shards[si].lookupRun(page, runEnd)
		if nHits > 0 {
			done = done.Add(time.Duration(nHits) * c.hitPageCost)
			page += nHits
			if page > runEnd {
				continue // run fully warm; next shard run
			}
		}
		// Miss run starting at page; extend across shard runs while the
		// frontier keeps missing, one locked scan per run.
		missStart := page
		for open && missEnd < last {
			nsi := c.shardIndex(missEnd + 1)
			nEnd := c.shardRunEnd(nsi, missEnd+1, last)
			var e int64
			e, open = c.shards[nsi].scanMissRun(missEnd+1, nEnd)
			if e < missEnd+1 {
				break
			}
			missEnd = e
		}
		// The demand fetch's miss accounting rides into the first install
		// run's critical section (installRange's preMiss), booked to the
		// stripe of missStart exactly as the separate locked step used to
		// book it — a miss run is two lock acquisitions (lookup, install),
		// not three.
		nDemand := missEnd - missStart + 1
		rs := c.shardOf(missStart)
		diskDone, _ := io.backend.Access(done, simdisk.Request{
			Offset: missStart * c.cfg.PageSize,
			Length: nDemand * c.cfg.PageSize,
		})
		done = diskDone
		c.installRange(io, done, missStart, missEnd, false, false, false, false, nDemand)
		// Asynchronous read-ahead: queue the next window behind the
		// demand fetch. It occupies the disk but is not charged to this
		// read — later sequential reads find the pages resident.
		if sequential && c.cfg.PrefetchPages > 0 {
			pfStart := missEnd + 1
			pfEnd := missEnd + int64(c.cfg.PrefetchPages)
			io.evictAccess(diskDone, simdisk.Request{
				Offset: pfStart * c.cfg.PageSize,
				Length: (pfEnd - pfStart + 1) * c.cfg.PageSize,
			})
			brought, _ := c.installRange(io, diskDone, pfStart, pfEnd, false, true, false, false, 0)
			if brought > 0 {
				rs.mu.Lock()
				rs.stats.PrefetchedIn += brought
				rs.stats.BytesFromDisk += brought * c.cfg.PageSize
				rs.mu.Unlock()
			}
		}
		// Copy the demanded part of the run to the caller.
		done = done.Add(c.copyCost(nDemand * c.cfg.PageSize))
		page = missEnd + 1
	}
	return done, done.Sub(now)
}

// readIOOneShard is ReadIO for the single-stripe cache: every page of
// the range hashes to shard 0, so hit consumption, the miss-extent
// scan, miss accounting, the demand fill, the install, and the
// read-ahead window all run under one lock acquisition — the cold path
// costs one shard mutex round-trip per read instead of three. Holding
// the stripe lock across the simulated disk accesses is deadlock-free
// (the disk model takes only its own mutex, never a shard's) and
// deliberate: the fill and the eviction/read-ahead billing that must
// interleave with it stay one critical section, which is what makes
// the paper-default miss path cheap. The cost is that concurrent
// sessions' private disk views no longer overlap in wall time while a
// cold miss is in flight on the shared stripe — single-stripe mode is
// the deterministic single-threaded configuration; concurrent
// workloads run striped (ShardedConfig / -shards 0), which never
// enters this path. Transitions and timing are those of the
// multi-stripe loop exactly.
func (c *Cache) readIOOneShard(io *IO, now time.Time, first, last int64, sequential bool) (time.Time, time.Duration) {
	s := c.shards[0]
	done := now
	s.mu.Lock()
	page := first
	for page <= last {
		p := s.consumeHitsLocked(page, last)
		if n := p - page; n > 0 {
			done = done.Add(time.Duration(n) * c.hitPageCost)
			page = p
			if page > last {
				break
			}
		}
		// Miss extent [page..missEnd].
		missStart := page
		missEnd := s.scanMissLocked(page+1, last) - 1
		nDemand := missEnd - missStart + 1
		s.stats.Misses += nDemand
		s.stats.BytesFromDisk += nDemand * c.cfg.PageSize
		diskDone, _ := io.backend.Access(done, simdisk.Request{
			Offset: missStart * c.cfg.PageSize,
			Length: nDemand * c.cfg.PageSize,
		})
		done = diskDone
		s.installRunLocked(c, io, done, missStart, missEnd, false, false, false, false)
		// Asynchronous read-ahead: queue the next window behind the
		// demand fetch (and behind the demand installs' eviction
		// write-backs, which the disk must service first). It occupies
		// the disk but is not charged to this read — later sequential
		// reads find the pages resident.
		if sequential && c.cfg.PrefetchPages > 0 {
			pfStart := missEnd + 1
			pfEnd := missEnd + int64(c.cfg.PrefetchPages)
			io.backend.Access(diskDone, simdisk.Request{
				Offset: pfStart * c.cfg.PageSize,
				Length: (pfEnd - pfStart + 1) * c.cfg.PageSize,
			})
			brought, _, _ := s.installRunLocked(c, io, diskDone, pfStart, pfEnd, false, true, false, false)
			if brought > 0 {
				s.stats.PrefetchedIn += brought
				s.stats.BytesFromDisk += brought * c.cfg.PageSize
			}
		}
		// Copy the demanded part of the run to the caller.
		done = done.Add(c.copyCost(nDemand * c.cfg.PageSize))
		page = missEnd + 1
	}
	s.mu.Unlock()
	return done, done.Sub(now)
}

// WriteIO simulates writing [offset, offset+length) on io's backend
// view. With write-behind the pages are dirtied in memory at copy cost;
// otherwise the data also goes straight to the backend. Bulk path: one
// lock acquisition per shard run, with eviction write-backs threaded
// through the running horizon exactly as the page-granular loop charges
// them.
func (c *Cache) WriteIO(io *IO, now time.Time, offset, length int64) (time.Time, time.Duration) {
	if length < 0 {
		length = 0
	}
	done := now
	first, last := c.pageRange(offset, length)
	if last < first {
		d := now.Add(c.cfg.HitOverhead)
		return d, d.Sub(now)
	}
	page := first
	for page <= last {
		si := c.shardIndex(page)
		runEnd := c.shardRunEnd(si, page, last)
		_, dc, dirtied, horizon := c.shards[si].installRun(c, io, done, page, runEnd, c.cfg.WriteBehind, false, true, true, 0)
		if horizon.After(done) {
			done = horizon // eviction write-back stalled us
		}
		if dirtied {
			c.maybeSignalWriteback(si, dc, done)
			if c.cfg.WritebackHighwater > 0 && dc >= c.cfg.WritebackHighwater {
				done = c.stallHighwater(si, done)
			}
		}
		page = runEnd + 1
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
