package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/bench/gen"
	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/simdisk"
	"repro/internal/simdisk/sharedq"
	"repro/internal/trace"
	"repro/internal/tracesim"
)

// The traced run is a ladder over the workload's traced trace (replayCfg.traced records),
// each rung calling one module's public API and nothing below the
// module's surface:
//
//	1 trace        NewScanner + Next
//	2 tracesim     ReplayStream / ReplayConcurrent over a zero-cost store; self = rung 2 - rung 1
//	3 fsim         one goroutine per PID on FileStore.NewSession, a span around every call
//	4 buffercache, the stack re-assembled from public constructors with a
//	  sharedq,      span-recording decorator at each boundary; self = span - child spans
//	  simdisk
//
// Counts come from the modules' own Stats after rung 3 (the store wired
// exactly as the CLI wires it); times come from the spans.

// sampler collects one sample per metric per repeat.
type sampler map[string][]float64

func (s sampler) add(name string, v float64) { s[name] = append(s[name], v) }

// result reduces the samples to the contract's per-layer metrics; a
// metric no rung reported reads 0 (the workload never enters that layer).
func (s sampler) result() map[string]metricResult {
	out := map[string]metricResult{}
	for _, d := range perLayer {
		samples := s[d.name]
		if len(samples) == 0 {
			samples = []float64{0}
		}
		r := summarize(samples, d.unit)
		hostTime := d.unit == "ns" || d.unit == "us" || d.unit == "%"
		if !hostTime && len(samples) >= 2 {
			r.Exact = true
			for _, v := range samples {
				r.Exact = r.Exact && v == samples[0]
			}
		}
		out[d.name] = r
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedRun repeats the ladder at least twice (a count must repeat to
// be marked exact) and until seconds have passed.
func (h *harness) tracedRun(ctx context.Context, w workloadDef, seconds float64) (workloadResult, error) {
	res := workloadResult{}
	s := sampler{}
	start := time.Now()
	var events []traceEvent
	for n := 0; n < 2 || time.Since(start).Seconds() < seconds; n++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		var attempted, failed int64
		var err error
		if w.web != nil {
			events, attempted, failed, err = h.webLadder(ctx, w, s, n == 0)
		} else {
			events, attempted, failed, err = h.replayLadder(w, s)
		}
		res.Attempted += attempted
		res.Failed += failed
		if err != nil {
			if res.Failed == 0 {
				res.Failed = 1
			}
			return res, err
		}
	}
	res.Metrics = s.result()
	return res, writeSpanFile(filepath.Join(h.out, w.name+".spans.json"), events)
}

// replayLadder runs rungs 1-4 once over the workload's traced trace.
func (h *harness) replayLadder(w workloadDef, s sampler) (events []traceEvent, attempted, failed int64, err error) {
	rc := *w.replay
	rc.spec.Records = rc.traced
	path := filepath.Join(h.work, w.name+".traced.trace")
	if err := gen.WriteFile(path, rc.spec, h.seed); err != nil {
		return nil, 0, 0, err
	}
	n := float64(rc.traced)
	attempted = int64(rc.traced)
	// A rung that cannot run fails the whole trace.
	fail := func(err error) ([]traceEvent, int64, int64, error) { return nil, attempted, attempted, err }

	decodeNs, err := decodeRung(path, rc.traced, s)
	if err != nil {
		return fail(err)
	}
	if err := tracesimRung(path, rc, decodeNs, s); err != nil {
		return fail(err)
	}

	lanes, err := loadLanes(path, rc.spec.PIDs)
	if err != nil {
		return fail(err)
	}
	// Rung 3 twice: without spans for the instrument's own cost, then with.
	plain, _, err := fsimRung(rc, lanes, nil)
	if err != nil {
		return fail(err)
	}
	tr3 := newTracer()
	traced, st, err := fsimRung(rc, lanes, tr3)
	if err != nil {
		return fail(err)
	}
	s.add("harness.trace_overhead_pct", 100*ratio(float64(traced-plain), float64(plain)))
	perOp := func(name string, kinds ...kind) {
		t := tr3.total(kinds...)
		s.add(name, ratio(float64(t.busy), float64(t.calls)))
	}
	perOp("fsim.read_ns_per_op", kFsimRead)
	perOp("fsim.write_ns_per_op", kFsimWrite)
	perOp("fsim.seek_ns_per_op", kFsimSeek)
	perOp("fsim.openclose_ns_per_op", kFsimOpen, kFsimClose)
	ops := tr3.total(kFsimOpen, kFsimClose, kFsimSeek, kFsimRead, kFsimWrite).calls
	s.add("fsim.ops", float64(ops))
	s.add("fsim.failed_ops", float64(st.opErrors+st.recovery.Failed))
	s.add("fsim.retried_ops", float64(st.recovery.Retried))
	failed = st.opErrors + st.recovery.Failed

	addStoreCounts(s, st.cache, st.disk)
	c := st.cache
	s.add("buffercache.writeback_pages", float64(c.WritebackPages))
	s.add("buffercache.writeback_batches", float64(c.WritebackBatches))
	s.add("buffercache.writeback_throttles", float64(c.WritebackThrottles))
	s.add("sharedq.dispatches", float64(st.queue.Dispatches))
	s.add("sharedq.async_share", ratio(float64(st.queue.AsyncDispatches), float64(st.queue.Dispatches)))
	s.add("sharedq.max_pending", float64(st.queue.MaxPending))
	s.add("sharedq.queue_delay_ms", ms(st.queue.QueueDelay))

	tr4 := newTracer()
	counts, dispatches, err := cacheRung(rc, lanes, tr4)
	if err != nil {
		return fail(err)
	}
	pages := n * gen.OpSize / float64(counts.pageSize)
	cache := tr4.total(kCacheRead, kCacheWrite, kCacheFlush)
	queue := tr4.total(kQueueAccess, kQueueRun, kQueueBatch, kQueueAsync)
	disk := tr4.total(kDiskAccess, kDiskRun, kDiskBatch)
	s.add("buffercache.self_ns_per_page", ratio(float64(cache.self), pages))
	s.add("buffercache.backend_calls", float64(counts.backendCalls.Load()))
	s.add("buffercache.pages_per_backend_call", ratio(float64(counts.backendPages.Load()), float64(counts.backendCalls.Load())))
	// A lane's span ends when its entry has been served, by whichever
	// goroutine dispatched it: what is left after the device's share is
	// the queue's ordering work plus the wait at its conservative gate.
	var underQueue int64
	if rc.sharedQ {
		underQueue = disk.busy
	}
	s.add("sharedq.self_ns_per_dispatch", ratio(float64(queue.busy-underQueue), float64(dispatches)))
	s.add("simdisk.self_ns_per_access", ratio(float64(disk.self), float64(counts.diskRequests.Load())))
	s.add("simdisk.batch_requests", float64(counts.batchRequests.Load()))
	return append(tr3.events(3), tr4.events(4)...), attempted, failed, nil
}

// addStoreCounts records what a store's cache and disks report about
// themselves: the counts every workload with a store has.
func addStoreCounts(s sampler, c buffercache.Stats, d simdisk.Stats) {
	s.add("buffercache.hits", float64(c.Hits))
	s.add("buffercache.misses", float64(c.Misses))
	s.add("buffercache.hit_ratio", c.HitRate())
	s.add("buffercache.evictions", float64(c.Evictions))
	s.add("buffercache.prefetch_useful_ratio", ratio(float64(c.PrefetchHits), float64(c.PrefetchedIn)))
	s.add("buffercache.dirty_flushes", float64(c.DirtyFlushes))
	s.add("simdisk.accesses", float64(d.Ops()))
	s.add("simdisk.busy_sim_ms", ms(d.BusyTime))
	s.add("simdisk.seek_sim_ms", ms(d.SeekTime))
	s.add("simdisk.bytes_read", float64(d.BytesRead))
	s.add("simdisk.bytes_written", float64(d.BytesWritten))
}

// memDelta runs fn between two heap readings.
func memDelta(fn func() error) (elapsed time.Duration, mallocs uint64, retained int64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = fn()
	elapsed = time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, int64(after.HeapAlloc) - int64(before.HeapAlloc), err
}

// decodeRung is rung 1: the scanner alone.
func decodeRung(path string, records int, s sampler) (nsPerRecord float64, err error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var count int64
	elapsed, mallocs, _, err := memDelta(func() error {
		sc, err := trace.NewScanner(f)
		if err != nil {
			return err
		}
		for sc.Next() {
		}
		count = sc.Count()
		return sc.Err()
	})
	if err != nil {
		return 0, err
	}
	if count != int64(records) {
		return 0, fmt.Errorf("scanner yielded %d of %d generated records", count, records)
	}
	nsPerRecord = float64(elapsed) / float64(records)
	s.add("trace.decode_ns_per_record", nsPerRecord)
	s.add("trace.bytes_per_record", float64(st.Size())/float64(records))
	s.add("trace.decode_allocs_per_record", float64(mallocs)/float64(records))
	return nsPerRecord, nil
}

// nopStore is a zero-cost fsim.Store: tracesim over it costs decode,
// routing, the per-record hop, the session-op switch and the report
// rows, and nothing below.
type nopStore struct{}

type nopFile struct{}

func (nopStore) Create(string, []byte) (time.Duration, error)  { return 0, nil }
func (nopStore) Open(string) (fsim.File, time.Duration, error) { return nopFile{}, 0, nil }
func (nopStore) Remove(string) (time.Duration, error)          { return 0, nil }
func (nopStore) Stat(string) (int64, time.Duration, error)     { return 0, 0, nil }
func (nopStore) Exists(string) bool                            { return true }
func (nopStore) Names() []string                               { return nil }

func (nopFile) Read(p []byte) (int, time.Duration, error)  { return len(p), 0, nil }
func (nopFile) Write(p []byte) (int, time.Duration, error) { return len(p), 0, nil }
func (nopFile) SeekTo(off int64, _ int) (int64, time.Duration, error) {
	return off, 0, nil
}
func (nopFile) Close() (time.Duration, error) { return 0, nil }
func (nopFile) Size() int64                   { return 0 }
func (nopFile) Name() string                  { return gen.SampleFile }

// tracesimRung is rung 2: the engine the workload's CLI flags select,
// over the zero-cost store.
func tracesimRung(path string, rc replayCfg, decodeNs float64, s sampler) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rp := tracesim.NewReplayer(nopStore{})
	var rep *tracesim.Report
	elapsed, mallocs, retained, err := memDelta(func() error {
		if rc.materialised {
			tr, err := trace.Read(f)
			if err != nil {
				return err
			}
			rep, err = rp.ReplayConcurrent("bench", tr)
			return err
		}
		sc, err := trace.NewScanner(f)
		if err != nil {
			return err
		}
		rep, err = rp.ReplayStream("bench", sc)
		return err
	})
	if err != nil {
		return err
	}
	n := float64(rc.traced)
	s.add("tracesim.self_ns_per_record", float64(elapsed)/n-decodeNs)
	s.add("tracesim.allocs_per_record", float64(mallocs)/n)
	s.add("tracesim.heap_bytes_per_record", float64(retained)/n)
	s.add("tracesim.rows", float64(len(rep.Requests)))
	runtime.KeepAlive(rep) // the rows are what heap_bytes_per_record counts
	return nil
}

// laneRecord is one trace record with its position in the trace, the
// id every span it causes carries.
type laneRecord struct {
	trace.Record
	index int32
}

// loadLanes decodes the trace into per-PID record lists, in trace order.
func loadLanes(path string, pids int) ([][]laneRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := trace.NewScanner(f)
	if err != nil {
		return nil, err
	}
	lanes := make([][]laneRecord, pids)
	for i := int32(0); sc.Next(); i++ {
		rec := sc.Record()
		if int(rec.PID) >= pids {
			return nil, fmt.Errorf("record %d: pid %d outside the %d generated", i, rec.PID, pids)
		}
		lanes[rec.PID] = append(lanes[rec.PID], laneRecord{*rec, i})
	}
	return lanes, sc.Err()
}

// storeStats is what the modules report about themselves after rung 3.
type storeStats struct {
	cache    buffercache.Stats
	disk     simdisk.Stats
	queue    sharedq.Stats
	recovery fsim.RecoveryStats
	opErrors int64
}

// fsimRung is rung 3: the store built as the CLI builds it, one session
// and one goroutine per PID, every File and Store call inside a span.
// With a nil tracer it is the same driver with the spans compiled to
// nil checks.
func fsimRung(rc replayCfg, lanes [][]laneRecord, tr *tracer) (time.Duration, storeStats, error) {
	var st storeStats
	store, err := fsim.NewFileStore(rc.storeConfig())
	if err != nil {
		return 0, st, err
	}
	defer store.Close()
	if _, err := store.CreateSized(gen.SampleFile, rc.spec.FileSize); err != nil {
		return 0, st, err
	}
	// Every lane registers before any worker runs, as ReplayConcurrent
	// does: a shared queue serves a sole registered lane inline.
	sessions := make([]*fsim.Session, len(lanes))
	tracks := make([]*track, len(lanes))
	for i := range lanes {
		sessions[i] = store.NewSession()
		tracks[i] = tr.track()
	}
	errs := make([]int64, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = driveSession(sessions[i], lanes[i], tracks[i])
			sessions[i].Idle()
		}()
	}
	wg.Wait()
	store.Settle()
	elapsed := time.Since(start)
	st.cache = store.Cache().Stats()
	st.disk = store.TotalDiskStats()
	if q := store.SharedQueue(); q != nil {
		st.queue = q.Stats()
	}
	st.recovery = store.RecoveryStats()
	for i, sess := range sessions {
		st.opErrors += errs[i]
		sess.Release()
	}
	return elapsed, st, nil
}

// driveSession issues one PID's records as tracesim's step does: a read
// or write record is a SeekTo and then the transfer. It returns how
// many calls failed.
func driveSession(sess *fsim.Session, recs []laneRecord, t *track) (failed int64) {
	var f fsim.File
	buf := make([]byte, gen.OpSize)
	check := func(err error) {
		if err != nil && err != io.EOF {
			failed++
		}
	}
	for i := range recs {
		rec := &recs[i]
		if t != nil {
			t.req = rec.index
		}
		switch rec.Op {
		case trace.OpOpen:
			t.begin(kFsimOpen)
			file, _, err := sess.Open(gen.SampleFile)
			t.end()
			check(err)
			f = file
		case trace.OpClose:
			if f == nil {
				failed++
				continue
			}
			t.begin(kFsimClose)
			_, err := f.Close()
			t.end()
			check(err)
			f = nil
		case trace.OpRead, trace.OpWrite:
			if f == nil {
				failed++
				continue
			}
			t.begin(kFsimSeek)
			_, _, err := f.SeekTo(rec.Offset, io.SeekStart)
			t.end()
			check(err)
			if rec.Op == trace.OpRead {
				t.begin(kFsimRead)
				_, _, err = f.Read(buf[:rec.Length])
			} else {
				t.begin(kFsimWrite)
				_, _, err = f.Write(buf[:rec.Length])
			}
			t.end()
			check(err)
		}
	}
	return failed
}

// cacheRung is rung 4: array <- (queue) <- cache assembled from the
// public constructors the way fsim.NewFileStore and NewSession assemble
// them, with a decorator at each boundary, driven with the records'
// (PID, offset, length, write).
func cacheRung(rc replayCfg, lanes [][]laneRecord, tr *tracer) (*rungCounts, int64, error) {
	cfg := rc.storeConfig()
	counts := &rungCounts{pageSize: cfg.Cache.PageSize}
	newArray := func() (*simdisk.Array, error) {
		return simdisk.NewArrayLevel(cfg.Disks, cfg.StripeUnit, cfg.RAIDLevel, cfg.Disk)
	}
	// Views several goroutines reach (the cache's own, the write-back
	// view, the array under the queue) share one track behind a mutex.
	var sharedMu sync.Mutex
	sharedTrack := tr.track()
	shared := func(underQueue bool, reqs *reqTable) (*diskSpans, error) {
		a, err := newArray()
		return &diskSpans{dev: a, t: sharedTrack, mu: &sharedMu, counts: counts, underQueue: underQueue, reqs: reqs}, err
	}
	base, err := shared(false, nil)
	if err != nil {
		return nil, 0, err
	}
	cache, err := buffercache.New(cfg.Cache, base)
	if err != nil {
		return nil, 0, err
	}
	defer cache.Close()
	if cfg.Cache.WritebackThreshold > 0 {
		wb, err := shared(false, nil)
		if err != nil {
			return nil, 0, err
		}
		cache.SetWritebackBackend(wb)
	}
	var queue *sharedq.Queue
	var reqs *reqTable
	if rc.sharedQ {
		reqs = &reqTable{m: map[int64][]int32{}}
		dev, err := shared(true, reqs)
		if err != nil {
			return nil, 0, err
		}
		if queue, err = sharedq.New(dev, cfg.Cache.WritebackPolicy); err != nil {
			return nil, 0, err
		}
	}

	epoch := time.Unix(0, 0)
	type worker struct {
		io   *buffercache.IO
		lane *sharedq.Lane
		t    *track
	}
	workers := make([]worker, len(lanes))
	for i := range workers {
		wk := worker{t: tr.track()}
		if queue != nil {
			wk.lane = queue.NewLane(epoch)
			wk.io = cache.NewIO(&laneSpans{lane: wk.lane, t: wk.t, counts: counts, reqs: reqs})
		} else {
			a, err := newArray()
			if err != nil {
				return nil, 0, err
			}
			wk.io = cache.NewIO(&diskSpans{dev: a, t: wk.t, counts: counts})
		}
		workers[i] = wk
	}
	var wg sync.WaitGroup
	ends := make([]time.Time, len(lanes))
	for i, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			now, wrote := epoch, false
			for _, rec := range lanes[i] {
				wk.t.req = rec.index
				if wk.lane != nil {
					wk.lane.Advance(now)
				}
				switch rec.Op {
				case trace.OpRead:
					wk.t.begin(kCacheRead)
					now, _ = cache.ReadIO(wk.io, now, rec.Offset, rec.Length)
					wk.t.end()
				case trace.OpWrite:
					wk.t.begin(kCacheWrite)
					now, _ = cache.WriteIO(wk.io, now, rec.Offset, rec.Length)
					wk.t.end()
					wrote = true
				case trace.OpClose:
					if wrote && !cache.WritebackEnabled() {
						// fsim's flush-on-close.
						wk.t.begin(kCacheFlush)
						now, _ = cache.FlushRangeIO(wk.io, now, 0, rc.spec.FileSize)
						wk.t.end()
					}
				}
			}
			if wk.lane != nil {
				wk.lane.Park()
			}
			ends[i] = now
		}()
	}
	wg.Wait()
	last := epoch
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	// fsim's Settle.
	if cache.WritebackEnabled() {
		cache.Quiesce(last)
	} else {
		cache.Flush(last)
	}
	var dispatches int64
	if queue != nil {
		dispatches = queue.Stats().Dispatches
		for _, wk := range workers {
			wk.lane.Release()
		}
	}
	return counts, dispatches, nil
}
