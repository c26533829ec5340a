package buffercache

import (
	"testing"
	"time"

	"repro/internal/simdisk"
)

// wbConfig is a small write-back-enabled cache configuration.
func wbConfig(threshold int, policy simdisk.SchedPolicy) Config {
	cfg := DefaultConfig()
	cfg.NumPages = 256
	cfg.Shards = 4
	cfg.WritebackThreshold = threshold
	cfg.WritebackPolicy = policy
	return cfg
}

func TestWritebackDisabledByDefault(t *testing.T) {
	c := MustNew(DefaultConfig(), simdisk.MustNew(simdisk.MemoryBackedParams()))
	if c.WritebackEnabled() {
		t.Fatal("default config enabled write-back")
	}
	// Close and Quiesce are safe no-ops without write-back.
	now := time.Unix(0, 0)
	if got := c.Quiesce(now); !got.Equal(now) {
		t.Fatalf("Quiesce without write-back = %v, want now", got)
	}
	c.Close()
	c.Close()
}

func TestWritebackDrainsDirtySetInBackground(t *testing.T) {
	disk := simdisk.MustNew(simdisk.MemoryBackedParams())
	cfg := wbConfig(8, simdisk.SSTF)
	cfg.WritebackBatch = 4 // several scheduled batches per drain
	c := MustNew(cfg, disk)
	defer c.Close()

	now := time.Unix(0, 0)
	// Dirty well past the per-stripe threshold.
	for i := int64(0); i < 128; i++ {
		now, _ = c.Write(now, i*c.cfg.PageSize, c.cfg.PageSize)
	}
	// The flushers run on their own goroutines; wait for the signal-driven
	// drains to retire the bulk of the dirty set.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().WritebackPages == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flushers retired no pages")
		}
		time.Sleep(time.Millisecond)
	}
	// Quiesce retires everything that remains, deterministically.
	c.Quiesce(now)
	if got := c.DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived Quiesce", got)
	}
	s := c.Stats()
	if s.WritebackPages == 0 || s.WritebackBatches == 0 {
		t.Fatalf("write-back counters empty: %+v", s)
	}
	if s.WritebackBatches < s.WritebackPages/4 {
		t.Fatalf("batch cap 4 not honored: %d pages in %d batches", s.WritebackPages, s.WritebackBatches)
	}
	if s.DirtyFlushes < s.WritebackPages {
		t.Fatalf("DirtyFlushes %d < WritebackPages %d", s.DirtyFlushes, s.WritebackPages)
	}
	if want := s.DirtyFlushes * c.cfg.PageSize; s.BytesToDisk != want {
		t.Fatalf("BytesToDisk = %d, want %d", s.BytesToDisk, want)
	}
	if c.WritebackHorizon().IsZero() {
		t.Fatal("write-back consumed no simulated time")
	}
}

// TestWritebackChargesBackgroundLanesNotCaller pins the core contract:
// with write-back on, dirtying pages costs the writer only memory-copy
// time; the disk time lands on the flushers' lanes.
func TestWritebackChargesBackgroundLanesNotCaller(t *testing.T) {
	disk := simdisk.MustNew(simdisk.MemoryBackedParams())
	c := MustNew(wbConfig(4, simdisk.SCAN), disk)
	defer c.Close()

	// An identical cache without write-back, flushed in the foreground.
	ref := MustNew(wbConfig(0, simdisk.FCFS), simdisk.MustNew(simdisk.MemoryBackedParams()))

	now := time.Unix(0, 0)
	var wbDone, refDone time.Time
	wbDone = now
	refDone = now
	for i := int64(0); i < 32; i++ {
		wbDone, _ = c.Write(wbDone, i*c.cfg.PageSize, c.cfg.PageSize)
		refDone, _ = ref.Write(refDone, i*ref.cfg.PageSize, ref.cfg.PageSize)
	}
	if !wbDone.Equal(refDone) {
		t.Fatalf("write path cost changed under write-back: %v vs %v", wbDone, refDone)
	}
	refFlush, _ := ref.Flush(refDone)
	if !refFlush.After(refDone) {
		t.Fatal("foreground flush charged no time")
	}
	horizon := c.Quiesce(wbDone)
	if !horizon.After(wbDone) {
		t.Fatal("background flush consumed no lane time")
	}
}

// recordingBackend wraps a Backend and records the request order
// each scheduled batch was submitted in, before any policy reordering.
type recordingBackend struct {
	Backend
	batches [][]int64 // offsets per submitted batch, in submission order
}

func (r *recordingBackend) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	offs := make([]int64, len(reqs))
	for i, req := range reqs {
		offs[i] = req.Offset
	}
	r.batches = append(r.batches, offs)
	return r.Backend.ServeBatch(now, reqs, policy)
}

// TestWritebackFeedsArrivalOrder pins the FCFS fix: drains submit dirty
// pages to the disk scheduler in raw arrival (dirtying) order, so FCFS
// genuinely services first-dirtied-first instead of receiving a
// pre-sorted ascending sweep. The dirtying order here is deliberately
// non-monotonic; a sorted drain would erase it.
func TestWritebackFeedsArrivalOrder(t *testing.T) {
	cfg := wbConfig(1<<30, simdisk.FCFS) // threshold unreachable: we drain
	cfg.Shards = 1                       // one stripe so one queue holds the whole order
	c := MustNew(cfg, simdisk.MustNew(simdisk.MemoryBackedParams()))
	defer c.Close()
	rec := &recordingBackend{Backend: simdisk.MustNew(simdisk.MemoryBackedParams())}
	c.SetWritebackBackend(rec)

	order := []int64{5, 2, 9, 1, 7}
	now := time.Unix(0, 0)
	for _, page := range order {
		now, _ = c.Write(now, page*cfg.PageSize, cfg.PageSize)
	}
	c.Quiesce(now)
	if len(rec.batches) != 1 {
		t.Fatalf("expected one drain batch, got %d", len(rec.batches))
	}
	for i, off := range rec.batches[0] {
		if want := order[i] * cfg.PageSize; off != want {
			t.Fatalf("batch position %d: offset %d, want %d (arrival order %v, got %v)",
				i, off, want, order, rec.batches[0])
		}
	}
	// Re-dirtying pages must preserve first-dirtied positions without
	// duplicating entries.
	now, _ = c.Write(now, 9*cfg.PageSize, cfg.PageSize)
	now, _ = c.Write(now, 3*cfg.PageSize, cfg.PageSize)
	now, _ = c.Write(now, 9*cfg.PageSize, cfg.PageSize) // already queued
	c.Quiesce(now)
	if len(rec.batches) != 2 {
		t.Fatalf("expected a second drain batch, got %d", len(rec.batches))
	}
	if got, want := rec.batches[1], []int64{9 * cfg.PageSize, 3 * cfg.PageSize}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("second batch %v, want %v", got, want)
	}
}

// TestWritebackHighwaterStallsWriter pins pdflush-style throttling: a
// write that saturates a stripe's dirty set is charged the drain's
// completion horizon, and the dirty set is empty afterwards. Below the
// mark, writers are never stalled.
func TestWritebackHighwaterStallsWriter(t *testing.T) {
	cfg := wbConfig(1<<30, simdisk.SSTF) // flushers never self-trigger
	cfg.Shards = 1
	cfg.WritebackHighwater = 8
	c := MustNew(cfg, simdisk.MustNew(simdisk.MemoryBackedParams()))
	defer c.Close()

	now := time.Unix(0, 0)
	var fast time.Duration
	for i := int64(0); i < 7; i++ {
		var d time.Duration
		now, d = c.Write(now, i*cfg.PageSize, cfg.PageSize)
		if d > fast {
			fast = d
		}
	}
	if got := c.Stats().WritebackThrottles; got != 0 {
		t.Fatalf("%d throttles before the high-water mark", got)
	}
	done, stalled := c.Write(now, 7*cfg.PageSize, cfg.PageSize)
	if stalled <= 10*fast {
		t.Fatalf("high-water write took %v, not meaningfully above the %v unthrottled cost", stalled, fast)
	}
	if got := c.DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived the throttle drain", got)
	}
	if got := c.Stats().WritebackThrottles; got != 1 {
		t.Fatalf("WritebackThrottles = %d, want 1", got)
	}
	if got := c.Stats().WritebackPages; got != 8 {
		t.Fatalf("WritebackPages = %d, want 8", got)
	}
	_ = done
}

// TestWritebackHighwaterValidation: the mark needs background
// write-back to drain to.
func TestWritebackHighwaterValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritebackHighwater = 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("high-water mark without write-back validated")
	}
	cfg.WritebackThreshold = 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid high-water config rejected: %v", err)
	}
	cfg.WritebackHighwater = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative high-water mark validated")
	}
}

// TestWritebackQuiesceDeterministic replays the same write sequence
// twice through fresh caches and quiesces: the final horizon, stats, and
// page state must match exactly.
func TestWritebackQuiesceDeterministic(t *testing.T) {
	run := func() (time.Time, Stats) {
		c := MustNew(wbConfig(1<<30, simdisk.SSTF), simdisk.MustNew(simdisk.MemoryBackedParams()))
		defer c.Close()
		now := time.Unix(0, 0)
		for i := int64(0); i < 64; i++ {
			off := (i * 7 % 64) * c.cfg.PageSize
			now, _ = c.Write(now, off, c.cfg.PageSize)
		}
		// Threshold is unreachable, so no background drain raced: Quiesce
		// does all the work on the write-back lanes.
		return c.Quiesce(now), c.Stats()
	}
	h1, s1 := run()
	h2, s2 := run()
	if !h1.Equal(h2) {
		t.Fatalf("quiesce horizons differ: %v vs %v", h1, h2)
	}
	if s1 != s2 {
		t.Fatalf("stats differ:\n%+v\n%+v", s1, s2)
	}
}

// TestWritebackQueueDoesNotLeakStaleEntries pins the dirty-arrival
// queue's memory bound: pages that are dirtied, then cleaned outside a
// drain (here via Flush), leave stale entries behind, and a stripe
// sitting below the drain threshold never trims them through drains.
// The opportunistic compaction in noteDirtyLocked and the
// stale-trimming in drainShard must keep the queue proportional to the
// dirty set, not to total write traffic.
func TestWritebackQueueDoesNotLeakStaleEntries(t *testing.T) {
	cfg := wbConfig(1<<30, simdisk.FCFS) // threshold unreachably high: no drain ever fires
	cfg.Shards = 1
	c := MustNew(cfg, simdisk.MustNew(simdisk.MemoryBackedParams()))
	defer c.Close()
	cfg.WriteBehind = true
	c.cfg.WriteBehind = true

	now := time.Unix(0, 0)
	for i := 0; i < 10000; i++ {
		page := int64(i % 64)
		now, _ = c.Write(now, page*cfg.PageSize, cfg.PageSize)
		now, _ = c.Flush(now) // cleans the page outside any drain: entry goes stale
	}
	s := c.shards[0]
	s.mu.Lock()
	qlen, dirty := len(s.dirtyOrder), s.dirty
	s.mu.Unlock()
	// The compaction threshold in noteDirtyLocked fires at len >
	// 4*dirty+16 with at least one page dirty, so the queue can idle at
	// up to ~20 stale entries after the final clean; anything well past
	// that means entries survived compaction and the queue tracks total
	// write traffic (here 10000 writes) instead of the dirty set.
	if qlen > 64 {
		t.Fatalf("dirty-arrival queue leaked: %d entries for %d dirty pages", qlen, dirty)
	}

	// A drain on an all-stale queue (want == 0) must trim it completely.
	c.wb.drainShard(0, now)
	s.mu.Lock()
	qlen = len(s.dirtyOrder)
	s.mu.Unlock()
	if qlen != 0 {
		t.Fatalf("drain left %d stale entries in an all-clean stripe", qlen)
	}
}

// TestWritebackCleanThenRedirtyEnqueuesAtTail pins the other half of
// the arrival-order contract: a page cleaned outside a drain (flush or
// eviction) abandons its queue position, so re-dirtying it is a fresh
// arrival at the tail — not a revival of the stale entry. The wbSeq
// generation stamp keeps the abandoned entry from masquerading as the
// new dirtying.
func TestWritebackCleanThenRedirtyEnqueuesAtTail(t *testing.T) {
	cfg := wbConfig(1<<30, simdisk.FCFS)
	cfg.Shards = 1
	cfg.WriteBehind = true
	c := MustNew(cfg, simdisk.MustNew(simdisk.MemoryBackedParams()))
	defer c.Close()
	rec := &recordingBackend{Backend: simdisk.MustNew(simdisk.MemoryBackedParams())}
	c.SetWritebackBackend(rec)

	now := time.Unix(0, 0)
	now, _ = c.Write(now, 1*cfg.PageSize, cfg.PageSize)
	now, _ = c.Write(now, 2*cfg.PageSize, cfg.PageSize)
	// Clean page 1 outside any drain: its queue entry is abandoned.
	now, _ = c.FlushRange(now, 1*cfg.PageSize, cfg.PageSize)
	now, _ = c.Write(now, 3*cfg.PageSize, cfg.PageSize)
	now, _ = c.Write(now, 1*cfg.PageSize, cfg.PageSize) // re-dirty: new arrival
	c.Quiesce(now)
	if len(rec.batches) != 1 {
		t.Fatalf("expected one drain batch, got %d", len(rec.batches))
	}
	want := []int64{2 * cfg.PageSize, 3 * cfg.PageSize, 1 * cfg.PageSize}
	got := rec.batches[0]
	if len(got) != len(want) {
		t.Fatalf("batch %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %v, want %v (re-dirtied page kept its stale position)", got, want)
		}
	}
}
