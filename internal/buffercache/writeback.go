// Background write-back: one flusher per cache stripe draining that
// stripe's dirty set through the backend's command queue.
//
// The model follows the OS page-cache writer threads: dirty pages
// accumulate until a stripe crosses Config.WritebackThreshold, at which
// point the stripe's flusher goroutine collects the dirty set, marks the
// pages clean (the writes are now owned by the disk queue), and submits
// them as one scheduled batch — the backend's ServeBatch with the
// configured SSTF/SCAN/FCFS policy. Batches are fed to the scheduler in raw arrival
// (dirtying) order, the stripe's dirtyOrder queue: the policy does the
// ordering, so FCFS genuinely services first-dirtied-first while
// SSTF/SCAN reorder by seek distance — the ablation separates instead of
// every policy receiving a pre-sorted sweep. The simulated time of each
// drain is charged to the stripe's own virtual-clock lane, never to the
// writer that tripped the threshold: write-back overlaps foreground
// work, which is exactly what distinguishes it from the flush-on-close
// paths (Flush, FlushRange) that bill the caller. The one exception is
// the optional dirty-page high-water mark (Config.WritebackHighwater):
// a writer that saturates a stripe's dirty set is stalled until the
// stripe drains, modelling pdflush throttling.
package buffercache

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/simdisk"
)

// writeback is the per-cache background flush subsystem.
type writeback struct {
	c *Cache

	// lanes holds one virtual clock per stripe: the simulated timeline
	// background flushing occupies. Drains advance these lanes, so
	// write-back time merges into an aggregate via max (overlap), not by
	// stalling foreground clocks.
	lanes []*clock.VirtualClock
	// mus serializes drains of the same stripe (flusher vs Quiesce).
	mus []sync.Mutex
	// sig wakes stripe i's flusher; the buffered slot coalesces bursts.
	sig []chan time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newWriteback builds the subsystem and starts one flusher goroutine per
// stripe. Callers stop them with Cache.Close.
func newWriteback(c *Cache) *writeback {
	wb := &writeback{
		c:     c,
		lanes: make([]*clock.VirtualClock, len(c.shards)),
		mus:   make([]sync.Mutex, len(c.shards)),
		sig:   make([]chan time.Time, len(c.shards)),
		stop:  make(chan struct{}),
	}
	for i := range wb.lanes {
		wb.lanes[i] = clock.NewVirtualClock(time.Time{})
		wb.sig[i] = make(chan time.Time, 1)
	}
	wb.wg.Add(len(c.shards))
	for i := range c.shards {
		go wb.flusherLoop(i)
	}
	return wb
}

// stopAll terminates the flusher goroutines and waits for them.
func (wb *writeback) stopAll() {
	wb.stopOnce.Do(func() { close(wb.stop) })
	wb.wg.Wait()
}

// flusherLoop is stripe si's background flusher: wait for a signal,
// drain the stripe, repeat.
func (wb *writeback) flusherLoop(si int) {
	defer wb.wg.Done()
	for {
		select {
		case at := <-wb.sig[si]:
			wb.drainShard(si, at)
		case <-wb.stop:
			return
		}
	}
}

// maybeSignalWriteback wakes shard si's flusher when its dirty set has
// reached the threshold. The send never blocks: a full signal slot means
// a drain is already pending, which will pick this page up too.
func (c *Cache) maybeSignalWriteback(si, dirtyCount int, now time.Time) {
	if c.wb == nil || dirtyCount < c.cfg.WritebackThreshold {
		return
	}
	select {
	case c.wb.sig[si] <- now:
	default:
	}
}

// SignalWriteback nudges every stripe's flusher to drain whatever is
// dirty, regardless of thresholds — the async half of a close: the
// caller hands its dirty pages to the background queue and moves on.
// No-op without write-back.
func (c *Cache) SignalWriteback(now time.Time) {
	if c.wb == nil {
		return
	}
	for si := range c.shards {
		select {
		case c.wb.sig[si] <- now:
		default:
		}
	}
}

// drainShard collects stripe si's dirty pages in arrival (dirtying)
// order, marks them clean, and submits them to the disk queue as
// policy-ordered batches on the stripe's write-back lane, starting no
// earlier than at. It returns the number of pages retired and the
// lane's completion horizon.
func (wb *writeback) drainShard(si int, at time.Time) (int, time.Time) {
	wb.mus[si].Lock()
	defer wb.mus[si].Unlock()
	c := wb.c
	s := c.shards[si]
	lane := wb.lanes[si]
	total := 0
	for {
		s.mu.Lock()
		want := s.dirty
		if c.cfg.WritebackBatch > 0 && want > c.cfg.WritebackBatch {
			want = c.cfg.WritebackBatch
		}
		pages := make([]int64, 0, want)
		// Consume the arrival queue front to back, dropping stale entries
		// (pages cleaned or evicted since they were queued). Stale entries
		// are consumed even once the batch is full — and in particular when
		// want is 0 — so a drain always trims the queue up to its first
		// live entry; a stripe whose dirty pages all got cleaned by
		// eviction or flush cannot pin an ever-growing queue.
		consumed := 0
		for consumed < len(s.dirtyOrder) {
			e := s.dirtyOrder[consumed]
			f := s.table.get(e.page)
			if f == nil || !f.inWBQueue || f.wbSeq != e.seq {
				consumed++
				continue
			}
			if !f.dirty {
				f.inWBQueue = false
				consumed++
				continue
			}
			if len(pages) >= want {
				break
			}
			f.inWBQueue = false
			f.dirty = false
			s.dirty--
			pages = append(pages, e.page)
			consumed++
		}
		kept := copy(s.dirtyOrder, s.dirtyOrder[consumed:])
		s.dirtyOrder = s.dirtyOrder[:kept]
		if n := len(pages); n > 0 {
			s.stats.DirtyFlushes += int64(n)
			s.stats.WritebackPages += int64(n)
			s.stats.WritebackBatches++
			s.stats.BytesToDisk += int64(n) * c.cfg.PageSize
		}
		s.mu.Unlock()
		if len(pages) == 0 {
			return total, lane.Now()
		}
		total += len(pages)

		reqs := make([]simdisk.Request, len(pages))
		for i, page := range pages {
			reqs[i] = simdisk.Request{
				Offset: page * c.cfg.PageSize,
				Length: c.cfg.PageSize,
				Write:  true,
			}
		}
		_, end := c.wbBackend.ServeBatch(clock.MaxTime(lane.Now(), at), reqs, c.cfg.WritebackPolicy)
		lane.Set(end)
	}
}

// stallHighwater models pdflush throttling: the foreground writer that
// pushed stripe si's dirty set to the high-water mark synchronously
// waits for the stripe to drain through the background write-back
// queue, and its clock advances to the drain's completion horizon. The
// drain itself still runs on the stripe's write-back lane (a racing
// flusher simply gets there first and the writer inherits its horizon).
func (c *Cache) stallHighwater(si int, now time.Time) time.Time {
	_, end := c.wb.drainShard(si, now)
	s := c.shards[si]
	s.mu.Lock()
	s.stats.WritebackThrottles++
	s.mu.Unlock()
	if end.After(now) {
		return end
	}
	return now
}

// Quiesce drains every stripe's dirty set through the write-back lanes,
// looping until the cache holds no dirty page, and returns the furthest
// write-back horizon. Callers use it at the end of a run (fsim's Settle)
// so all buffered writes reach the modeled disk; foreground lanes are
// not charged. Without write-back it is a no-op returning now.
func (c *Cache) Quiesce(now time.Time) time.Time {
	if c.wb == nil {
		return now
	}
	for {
		drained := 0
		for si := range c.shards {
			n, _ := c.wb.drainShard(si, now)
			drained += n
		}
		if drained == 0 && c.DirtyPages() == 0 {
			break
		}
	}
	horizon := now
	for _, lane := range c.wb.lanes {
		horizon = clock.MaxTime(horizon, lane.Now())
	}
	return horizon
}

// WritebackHorizon returns the furthest simulated time any stripe's
// background flushing has reached (zero time when write-back is off or
// idle): the end-to-end completion horizon of the buffered writes.
func (c *Cache) WritebackHorizon() time.Time {
	var horizon time.Time
	if c.wb == nil {
		return horizon
	}
	for i := range c.wb.lanes {
		c.wb.mus[i].Lock()
		horizon = clock.MaxTime(horizon, c.wb.lanes[i].Now())
		c.wb.mus[i].Unlock()
	}
	return horizon
}
