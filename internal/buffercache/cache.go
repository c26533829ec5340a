// Package buffercache models the operating-system page cache that sits
// between the paper's benchmarks and the disk. Every qualitative effect
// the paper reports in §3.4 and §4.2 — close slower than open (dirty
// flush), cold reads orders of magnitude slower than warm ones, prefetch
// hiding sequential misses, and occasional page-fault spikes inside
// otherwise-warm scans — falls out of this cache in front of the
// simdisk model.
//
// The cache tracks residency metadata only (which pages are in memory,
// which are dirty); file contents live in the file store above it. All
// timing is simulated and deterministic for a single-threaded caller.
//
// Concurrency: the cache is lock-striped. Pages hash onto a power-of-two
// number of shards, each with its own mutex, LRU list, dirty set, and
// slice of the frame pool, so goroutines touching different stripes
// never contend. The memory budget (Config.NumPages) stays global:
// free frames flow from a shared pool into per-stripe free lists in
// batches, an atomic gauge tracks residency, and a stripe under
// pressure first drains its free frames, then harvests a frame stranded
// on a sibling's list, then evicts its own LRU, and finally reclaims a
// frame from the fullest sibling — so capacity flows to hot stripes
// instead of being statically partitioned, and eviction begins only
// once the whole budget is resident. Shards == 1 reproduces the
// original single-mutex cache's per-operation behavior exactly,
// including its eviction order, which is what the paper-fidelity
// experiments run. The one deliberate change is Flush: it now sweeps
// dirty pages in ascending page order (the old implementation walked a
// Go map, so its simulated sweep timing varied run to run).
//
// Hot path: ReadIO and WriteIO (bulk.go) process the page range in
// per-shard runs — one lock acquisition, one batched stats update, and
// one LRU refresh pass per run, with the per-page copy cost precomputed
// at New — instead of a mutex round-trip and float division per page.
// The per-page reference those runs must reproduce lives in the tests
// (reference_test.go); TestBulkMatchesPageGranular replays workloads
// through both and asserts bit-identical timing, and tracesim's replay
// pins hold the same contract end to end.
package buffercache

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simdisk"
)

// Backend is the storage the cache misses to: *simdisk.Disk,
// *simdisk.Array and shared-queue lanes satisfy it. Access serves a
// demand fetch; AccessRun serves a contiguous run of equal-length
// requests in one call (eviction write-backs and flush spans), with
// completion times bit-identical to the equivalent Access sequence;
// ServeBatch schedules a whole queue in one policy-ordered batch
// (write-back drains and flush sweeps). Implementations must be safe for
// concurrent use, as different shards write back independently.
type Backend interface {
	Access(now time.Time, req simdisk.Request) (done time.Time, service time.Duration)
	AccessRun(now time.Time, r simdisk.Run) (done time.Time, service time.Duration)
	ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time)
}

// AsyncBackend is the optional fire-and-forget capability shared-queue
// lanes provide. Eviction write-backs and readahead are submitted while
// the caller holds a cache shard lock; on a shared queue a blocking
// submission there could deadlock the event merge (the lane that must
// produce the earlier-timestamped request may be waiting on that very
// lock), so those requests go through the Async forms. The returned
// time is the caller's stall horizon: the true completion when the
// backend can serve inline (a sole-lane queue), otherwise the
// submission time — queued background writes no longer stall the
// foreground. Private disk views do not implement this; they keep the
// original inline billing.
type AsyncBackend interface {
	Backend
	AccessAsync(now time.Time, req simdisk.Request) time.Time
	AccessRunAsync(now time.Time, r simdisk.Run) time.Time
}

// Config sizes and tunes a cache.
type Config struct {
	// PageSize is the cache page (block) size in bytes.
	PageSize int64
	// NumPages is the capacity in pages, shared across all shards.
	NumPages int
	// PrefetchPages is how many additional sequential pages a miss pulls
	// in (read-ahead window). Zero disables prefetching.
	PrefetchPages int
	// WriteBehind makes writes dirty the cache and defer the disk write to
	// eviction or flush; when false every write goes straight through.
	WriteBehind bool
	// MemCopyRate is the memory bandwidth charged for cache hits, bytes/s.
	MemCopyRate float64
	// HitOverhead is the fixed cost of a cache-hit lookup, modelling the
	// managed-runtime buffer lookup path.
	HitOverhead time.Duration
	// Shards is the number of lock stripes and must be a power of two.
	// Zero takes AutoShards(), the GOMAXPROCS-derived default. One shard
	// reproduces the original global-mutex cache bit for bit.
	Shards int
	// WritebackThreshold enables background write-back: when a stripe's
	// dirty set reaches this many pages, the stripe's flusher goroutine
	// drains it through the backend's command queue on the stripe's own
	// virtual-time lane. Zero (the default) disables write-back: dirty
	// pages wait for eviction or an explicit flush, the paper's
	// flush-on-close behavior.
	WritebackThreshold int
	// WritebackBatch caps how many pages one drain submits to the disk
	// queue; zero means the whole dirty set.
	WritebackBatch int
	// WritebackPolicy orders each write-back batch (FCFS, SSTF, SCAN)
	// when the backend supports batch scheduling.
	WritebackPolicy simdisk.SchedPolicy
	// WritebackHighwater is the dirty-page high-water mark per stripe:
	// a write that leaves a stripe's dirty set at or above it stalls the
	// foreground writer until the stripe drains through the background
	// write-back queue, modelling pdflush throttling. Zero (the default)
	// never stalls writers; a positive value requires background
	// write-back (WritebackThreshold > 0).
	WritebackHighwater int
}

// AutoShards returns the GOMAXPROCS-derived shard count: the smallest
// power of two covering twice the processor count, clamped to [4, 256] so
// concurrent paths stay striped even on single-core machines.
func AutoShards() int {
	n := 2 * runtime.GOMAXPROCS(0)
	s := 4
	for s < n && s < 256 {
		s <<= 1
	}
	return s
}

// DefaultConfig returns the configuration used across the reproduction:
// 4 KB pages, 16 MB of cache, 8-page read-ahead, write-behind enabled,
// 1 GB/s copy bandwidth, a 1 µs hit path, one stripe (the paper's
// deterministic configuration) and no background write-back.
func DefaultConfig() Config {
	return Config{
		PageSize:      4 << 10,
		NumPages:      4096,
		PrefetchPages: 8,
		WriteBehind:   true,
		MemCopyRate:   1 << 30,
		HitOverhead:   time.Microsecond,
		Shards:        1,
	}
}

// ShardedConfig is DefaultConfig striped for the machine: the shard count
// is AutoShards(). Use it for concurrent workloads; single-threaded
// paper-fidelity runs keep DefaultConfig.
func ShardedConfig() Config {
	cfg := DefaultConfig()
	cfg.Shards = AutoShards()
	return cfg
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("buffercache: page size %d must be positive", c.PageSize)
	case c.NumPages <= 0:
		return fmt.Errorf("buffercache: num pages %d must be positive", c.NumPages)
	case c.PrefetchPages < 0:
		return fmt.Errorf("buffercache: prefetch pages %d must be non-negative", c.PrefetchPages)
	case c.MemCopyRate <= 0:
		return fmt.Errorf("buffercache: mem copy rate %v must be positive", c.MemCopyRate)
	case c.HitOverhead < 0:
		return fmt.Errorf("buffercache: hit overhead %v must be non-negative", c.HitOverhead)
	case c.Shards < 0 || (c.Shards > 0 && c.Shards&(c.Shards-1) != 0):
		return fmt.Errorf("buffercache: shards %d must be a power of two", c.Shards)
	case c.WritebackThreshold < 0:
		return fmt.Errorf("buffercache: write-back threshold %d must be non-negative", c.WritebackThreshold)
	case c.WritebackBatch < 0:
		return fmt.Errorf("buffercache: write-back batch %d must be non-negative", c.WritebackBatch)
	case c.WritebackHighwater < 0:
		return fmt.Errorf("buffercache: write-back high-water mark %d must be non-negative", c.WritebackHighwater)
	case c.WritebackHighwater > 0 && c.WritebackThreshold == 0:
		return fmt.Errorf("buffercache: write-back high-water mark %d requires background write-back (threshold > 0)", c.WritebackHighwater)
	case !c.WritebackPolicy.Valid():
		return fmt.Errorf("buffercache: invalid scheduling policy %v", c.WritebackPolicy)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits               int64
	Misses             int64
	PrefetchedIn       int64 // pages brought in by read-ahead
	PrefetchHits       int64 // hits on pages that read-ahead brought in
	Evictions          int64
	DirtyFlushes       int64 // pages written back (eviction, Flush, or write-back)
	WritebackPages     int64 // pages retired by the background flushers
	WritebackBatches   int64 // scheduled drains the flushers submitted
	WritebackThrottles int64 // foreground writes stalled at the dirty high-water mark
	BytesFromDisk      int64
	BytesToDisk        int64
}

// add accumulates other into s.
func (s *Stats) add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.PrefetchedIn += other.PrefetchedIn
	s.PrefetchHits += other.PrefetchHits
	s.Evictions += other.Evictions
	s.DirtyFlushes += other.DirtyFlushes
	s.WritebackPages += other.WritebackPages
	s.WritebackBatches += other.WritebackBatches
	s.WritebackThrottles += other.WritebackThrottles
	s.BytesFromDisk += other.BytesFromDisk
	s.BytesToDisk += other.BytesToDisk
}

// HitRate returns hits / (hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// streamTails is how many concurrent sequential streams read-ahead
// detection tracks, mirroring the multi-stream readahead of real
// operating systems.
const streamTails = 4

// IO is a per-stream I/O context: the backend view misses and
// write-backs are charged against, plus this stream's read-ahead
// detection state. The cache's default context uses the cache's own
// backend and is what the plain Read/Write/Flush methods run on —
// bit-identical to the pre-context cache. Independent virtual-time
// sessions (fsim.Session) carry their own IO so their disk timing and
// sequential-stream detection never leak across lanes.
type IO struct {
	backend Backend
	// async is the backend's fire-and-forget capability (shared-queue
	// lanes); nil for private disk views, which bill evictions inline.
	async AsyncBackend

	// tails holds the last page of several recent read streams, so that
	// interleaved sequential scans (one per file or region, as the
	// Cholesky and multi-pass Dmine traces produce) each keep their
	// read-ahead detection. The slots are atomics rather than a mutex so
	// stream detection never serializes the striped hit path; under
	// concurrency a race can only mis-detect sequentiality, never corrupt
	// state.
	tails    [streamTails]atomic.Int64
	nextTail atomic.Uint32
}

// DefaultIO returns the cache's own I/O context, the one the plain
// Read/Write/Flush methods run on.
func (c *Cache) DefaultIO() *IO { return c.defIO }

// NewIO returns a fresh I/O context over backend (nil means the cache's
// own backend): untracked streams, independent miss accounting target.
func (c *Cache) NewIO(backend Backend) *IO {
	if backend == nil {
		backend = c.backend
	}
	io := &IO{backend: backend}
	io.async, _ = backend.(AsyncBackend)
	io.reset()
	return io
}

// evictAccess submits a background request — an eviction write-back or
// readahead issued under a shard lock — and returns the caller's stall
// horizon. Private views bill inline (unchanged behavior); shared-queue
// lanes take the non-blocking async path.
func (io *IO) evictAccess(now time.Time, req simdisk.Request) time.Time {
	if io.async != nil {
		return io.async.AccessAsync(now, req)
	}
	done, _ := io.backend.Access(now, req)
	return done
}

// evictRun is evictAccess for contiguous runs.
func (io *IO) evictRun(now time.Time, r simdisk.Run) time.Time {
	if io.async != nil {
		return io.async.AccessRunAsync(now, r)
	}
	done, _ := io.backend.AccessRun(now, r)
	return done
}

// reset clears the stream-tail slots to the never-adjacent sentinel.
func (io *IO) reset() {
	for i := range io.tails {
		io.tails[i].Store(-2) // never adjacent to a real first access
	}
}

// noteRead records a read ending at page last and reports whether the
// read starting at page first continued one of the tracked streams.
func (io *IO) noteRead(first, last int64) bool {
	for i := range io.tails {
		t := io.tails[i].Load()
		if first == t+1 || first == t {
			io.tails[i].Store(last)
			return true
		}
	}
	// New stream: replace the oldest slot.
	i := (io.nextTail.Add(1) - 1) % streamTails
	io.tails[i].Store(last)
	return false
}

// Cache is the page cache. It is safe for concurrent use.
type Cache struct {
	cfg     Config
	backend Backend

	shards     []*shard
	shardShift uint // stripe index = fibonacci hash >> (64 - shardShift); page tables home on the bits below

	// pool holds the frames not resident anywhere: the global memory
	// budget. used is the atomic residency gauge (== NumPages - free
	// frames at rest), making ResidentPages O(1).
	poolMu sync.Mutex
	pool   []*frame
	used   atomic.Int64

	// defIO is the context the plain (non-IO) methods run on.
	defIO *IO

	// hitPageCost is copyCost(PageSize) precomputed at New, so the warm
	// read loop charges hits with integer arithmetic only.
	hitPageCost time.Duration

	// wb is the background write-back subsystem; nil when disabled.
	// wbBackend is the disk view its drains are timed against — the
	// cache's own backend unless SetWritebackBackend installed a private
	// view (fsim does, so background flushing never perturbs foreground
	// disk timing: the lanes are independent by construction).
	wb        *writeback
	wbBackend Backend
}

// New builds a cache over backend. It returns an error for an invalid
// configuration or nil backend.
func New(cfg Config, backend Backend) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("buffercache: nil backend")
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = AutoShards()
	}
	var shift uint
	for 1<<shift < nShards {
		shift++
	}
	c := &Cache{
		cfg:        cfg,
		backend:    backend,
		shards:     make([]*shard, nShards),
		shardShift: shift,
		pool:       make([]*frame, 0, cfg.NumPages),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			free: make([]*frame, 0, poolRefillBatch),
		}
		c.shards[i].table.init(cfg.NumPages/nShards+1, shift)
	}
	c.defIO = c.NewIO(backend)
	c.wbBackend = backend
	c.hitPageCost = c.copyCost(cfg.PageSize)
	for i := 0; i < cfg.NumPages; i++ {
		c.pool = append(c.pool, &frame{page: -1})
	}
	if cfg.WritebackThreshold > 0 {
		c.wb = newWriteback(c)
	}
	return c, nil
}

// SetWritebackBackend installs the disk view background write-back is
// timed against. Call it once right after New, before any traffic:
// giving the flushers their own view keeps foreground disk timing
// deterministic — background drains overlap the foreground instead of
// queueing on its busy horizon.
func (c *Cache) SetWritebackBackend(be Backend) {
	if be != nil {
		c.wbBackend = be
	}
}

// Close stops the background flusher goroutines, if any. A cache built
// without write-back has nothing to stop; Close is then a no-op, so it
// is always safe (and idempotent) to call.
func (c *Cache) Close() {
	if c.wb != nil {
		c.wb.stopAll()
	}
}

// WritebackEnabled reports whether background write-back is on.
func (c *Cache) WritebackEnabled() bool { return c.wb != nil }

// MustNew is New that panics on error, for literal wiring in tools/tests.
func MustNew(cfg Config, backend Backend) *Cache {
	c, err := New(cfg, backend)
	if err != nil {
		panic(err)
	}
	return c
}

// shardOf maps a page number to its lock stripe by fibonacci hashing, so
// contiguous page runs spread across stripes instead of convoying on one.
func (c *Cache) shardOf(page int64) *shard {
	return c.shards[c.shardIndex(page)]
}

// shardIndex returns the stripe index for page. With one shard the shift
// is 64, which Go defines to yield 0.
func (c *Cache) shardIndex(page int64) int {
	h := uint64(page) * 0x9E3779B97F4A7C15
	return int(h >> (64 - c.shardShift))
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumShards returns the number of lock stripes.
func (c *Cache) NumShards() int { return len(c.shards) }

// Stats aggregates the per-shard counters into one snapshot. Each stripe
// is summed under its own lock in index order, so the totals are exact
// whenever the cache is quiescent and internally consistent (every page
// access counted exactly once) even while other goroutines run.
func (c *Cache) Stats() Stats {
	var total Stats
	for _, s := range c.shards {
		s.mu.Lock()
		total.add(s.stats)
		s.mu.Unlock()
	}
	return total
}

// Resident reports whether the page containing offset is cached.
func (c *Cache) Resident(offset int64) bool {
	return c.isResident(offset / c.cfg.PageSize)
}

// ResidentPages returns the number of cached pages, read from the atomic
// budget gauge.
func (c *Cache) ResidentPages() int {
	return int(c.used.Load())
}

// DirtyPages returns the number of dirty resident pages by summing the
// per-shard dirty sets.
func (c *Cache) DirtyPages() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.dirty
		s.mu.Unlock()
	}
	return n
}

// pageRange returns the first and last page numbers covering
// [offset, offset+length).
func (c *Cache) pageRange(offset, length int64) (first, last int64) {
	if length <= 0 {
		p := offset / c.cfg.PageSize
		return p, p - 1 // empty range
	}
	return offset / c.cfg.PageSize, (offset + length - 1) / c.cfg.PageSize
}

// copyCost charges memory-bandwidth time for n bytes plus the hit path.
func (c *Cache) copyCost(n int64) time.Duration {
	return c.cfg.HitOverhead + time.Duration(float64(n)/c.cfg.MemCopyRate*float64(time.Second))
}

// Read simulates reading [offset, offset+length) on the cache's default
// I/O context. It returns the completion time and the elapsed duration.
func (c *Cache) Read(now time.Time, offset, length int64) (time.Time, time.Duration) {
	return c.ReadIO(c.defIO, now, offset, length)
}

// Write simulates writing [offset, offset+length) on the cache's
// default I/O context.
func (c *Cache) Write(now time.Time, offset, length int64) (time.Time, time.Duration) {
	return c.WriteIO(c.defIO, now, offset, length)
}

// Flush writes back every dirty page and returns the completion time.
// This is what makes close slower than open in the paper's traces.
// The pass is two-phase: collect the dirty set from every stripe, then
// write back in ascending page order — one global elevator sweep whose
// simulated timing is deterministic and independent of the shard count.
// Pages dirtied concurrently with the sweep are left for the next flush;
// pages cleaned concurrently are skipped.
func (c *Cache) Flush(now time.Time) (time.Time, time.Duration) {
	var pages []int64
	for _, s := range c.shards {
		s.mu.Lock()
		s.table.each(func(f *frame) {
			if f.dirty {
				pages = append(pages, f.page)
			}
		})
		s.mu.Unlock()
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	done := c.flushPagesIO(c.defIO, now, pages)
	return done, done.Sub(now)
}

// cleanForFlush transitions page dirty->clean and accounts the flush,
// reporting whether there was a dirty resident page to write. The
// write-back itself is billed by the caller, which batches contiguous
// cleaned pages into single disk runs.
func (c *Cache) cleanForFlush(page int64) bool {
	s := c.shardOf(page)
	s.mu.Lock()
	f := s.table.get(page)
	if f == nil || !f.dirty {
		s.mu.Unlock()
		return false
	}
	f.dirty = false
	// Cleaning abandons the page's arrival-queue entry: a later re-dirty
	// enqueues at the tail, as arrival order demands.
	f.inWBQueue = false
	s.dirty--
	s.stats.DirtyFlushes++
	s.stats.BytesToDisk += c.cfg.PageSize
	s.mu.Unlock()
	return true
}

// flushRun accumulates an ascending stream of candidate pages into
// maximal contiguous still-dirty spans and submits each as one chained
// AccessRun — the same writes at the same completion-chained times as a
// page-at-a-time loop, in fewer disk submissions. FlushRangeIO's narrow
// walk feeds it.
type flushRun struct {
	c           *Cache
	io          *IO
	done        time.Time
	start, last int64
	count       int64
}

// add offers the next candidate page (callers feed pages in ascending
// order). A page that is not resident-and-dirty is skipped; a dirty one
// extends the open span or flushes it and starts a new one.
func (fr *flushRun) add(page int64) {
	if !fr.c.cleanForFlush(page) {
		return
	}
	if fr.count > 0 && page == fr.last+1 {
		fr.last = page
		fr.count++
		return
	}
	fr.flush()
	fr.start, fr.last, fr.count = page, page, 1
}

// flush submits the open span, if any.
func (fr *flushRun) flush() {
	if fr.count == 0 {
		return
	}
	fr.done, _ = fr.io.backend.AccessRun(fr.done, simdisk.Run{
		Offset: fr.start * fr.c.cfg.PageSize,
		Length: fr.c.cfg.PageSize,
		Count:  fr.count,
		Write:  true,
		Chain:  true,
	})
	fr.count = 0
}

// flushPagesIO writes back the still-dirty pages of the ascending
// candidate list on io's backend view and returns the final completion
// horizon. The sweep is scheduled rather than hand-chained: the cleaned
// pages go to ServeBatch as one sweep ordered by the configured
// write-back policy — under a shared queue the whole sweep takes its
// place in the contended disk queue. For an FCFS policy over the
// ascending page list the per-request completions chain on the device's
// busy horizon exactly as the old caller-chained elevator did, so the
// default configuration's timing is unchanged.
func (c *Cache) flushPagesIO(io *IO, done time.Time, pages []int64) time.Time {
	reqs := make([]simdisk.Request, 0, len(pages))
	for _, page := range pages {
		if c.cleanForFlush(page) {
			reqs = append(reqs, simdisk.Request{Offset: page * c.cfg.PageSize, Length: c.cfg.PageSize, Write: true})
		}
	}
	if len(reqs) == 0 {
		return done
	}
	_, end := io.backend.ServeBatch(done, reqs, c.cfg.WritebackPolicy)
	return end
}

// FlushRange writes back dirty pages intersecting [offset,
// offset+length) on the cache's default I/O context.
func (c *Cache) FlushRange(now time.Time, offset, length int64) (time.Time, time.Duration) {
	return c.FlushRangeIO(c.defIO, now, offset, length)
}

// FlushRangeIO writes back dirty pages intersecting [offset,
// offset+length) on io's backend view. File stores use it to flush one
// file's pages on close without disturbing the rest of the cache.
// Narrow ranges walk the pages directly; wide ranges (a whole-file
// close over a large sparse file) collect the dirty pages from the
// stripes' resident sets instead, so the flush costs the size of the
// dirty set, not of the range. Either way the pages written back, their
// ascending order, and so the simulated timing are identical.
func (c *Cache) FlushRangeIO(io *IO, now time.Time, offset, length int64) (time.Time, time.Duration) {
	done := now
	if length <= 0 {
		return done, 0
	}
	first, last := c.pageRange(offset, length)
	if span := last - first + 1; span <= int64(c.cfg.NumPages) {
		fr := flushRun{c: c, io: io, done: done}
		for page := first; page <= last; page++ {
			fr.add(page)
		}
		fr.flush()
		return fr.done, fr.done.Sub(now)
	}
	var pages []int64
	for _, s := range c.shards {
		s.mu.Lock()
		s.table.each(func(f *frame) {
			if f.dirty && f.page >= first && f.page <= last {
				pages = append(pages, f.page)
			}
		})
		s.mu.Unlock()
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	done = c.flushPagesIO(io, done, pages)
	return done, done.Sub(now)
}

// Invalidate drops every resident page without writing anything back.
// Tests use it to recreate a cold cache.
func (c *Cache) Invalidate() {
	for _, s := range c.shards {
		s.mu.Lock()
		freed := make([]*frame, 0, s.table.len())
		s.table.each(func(f *frame) {
			s.lru.remove(f)
			f.page = -1
			f.dirty = false
			f.prefetched = false
			f.inWBQueue = false
			freed = append(freed, f)
		})
		s.table.reset()
		s.dirty = 0
		s.dirtyOrder = s.dirtyOrder[:0]
		s.size.Store(0)
		c.used.Add(-int64(len(freed)))
		s.mu.Unlock()
		for _, f := range freed {
			c.pushFree(f)
		}
	}
	c.defIO.reset()
}
