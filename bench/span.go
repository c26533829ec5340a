package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simdisk"
	"repro/internal/simdisk/sharedq"
)

// kind names a span's layer and operation. Layers are the module names
// under internal/; spans are recorded by the benchmark's own files
// around calls into each module's public API.
type kind uint8

const (
	kFsimOpen kind = iota
	kFsimClose
	kFsimSeek
	kFsimRead
	kFsimWrite
	kFsimGet // one whole web GET / POST against the bare store
	kFsimPost
	kCacheRead
	kCacheWrite
	kCacheFlush
	kQueueAccess
	kQueueRun
	kQueueBatch
	kQueueAsync
	kDiskAccess
	kDiskRun
	kDiskBatch
	kVMGet
	kVMPost
	kWebGet
	kWebPost
	nKinds
)

var kindNames = [nKinds]struct{ layer, op string }{
	kFsimOpen:    {"fsim", "Open"},
	kFsimClose:   {"fsim", "Close"},
	kFsimSeek:    {"fsim", "SeekTo"},
	kFsimRead:    {"fsim", "Read"},
	kFsimWrite:   {"fsim", "Write"},
	kFsimGet:     {"fsim", "get"},
	kFsimPost:    {"fsim", "post"},
	kCacheRead:   {"buffercache", "ReadIO"},
	kCacheWrite:  {"buffercache", "WriteIO"},
	kCacheFlush:  {"buffercache", "FlushRangeIO"},
	kQueueAccess: {"sharedq", "Access"},
	kQueueRun:    {"sharedq", "AccessRun"},
	kQueueBatch:  {"sharedq", "ServeBatch"},
	kQueueAsync:  {"sharedq", "AccessAsync"},
	kDiskAccess:  {"simdisk", "Access"},
	kDiskRun:     {"simdisk", "AccessRun"},
	kDiskBatch:   {"simdisk", "ServeBatch"},
	kVMGet:       {"vm", "get"},
	kVMPost:      {"vm", "post"},
	kWebGet:      {"webserver", "get"},
	kWebPost:     {"webserver", "post"},
}

// keepReqs is how many requests' spans are kept for the span file;
// every span is aggregated, whatever its request.
const keepReqs = 10000

// stat aggregates one kind's spans, in nanoseconds. A span's self time
// is its duration minus the part its child spans cover.
type stat struct{ calls, busy, self int64 }

// span is one kept interval. req is the trace-record index or request
// number it belongs to: tagged once at entry and carried through every
// layer, so attribution keys on one id. parent indexes the enclosing
// span on the same track, -1 at the root.
type span struct {
	kind       kind
	req        int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

type frame struct {
	kind  kind
	start int64
	child int64 // ns covered by finished children
	idx   int32 // index in spans, -1 when not kept
}

// track records the spans of one goroutine. A nil track records
// nothing, which is how the untraced rungs run the same driver.
type track struct {
	epoch time.Time
	req   int32
	stack []frame
	stats [nKinds]stat
	spans []span
}

func (t *track) begin(k kind) {
	if t == nil {
		return
	}
	f := frame{kind: k, idx: -1, start: int64(time.Since(t.epoch))}
	if t.req >= 0 && t.req < keepReqs {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: k, req: t.req, parent: parent, start: f.start})
	}
	t.stack = append(t.stack, f)
}

func (t *track) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	s := &t.stats[f.kind]
	s.calls++
	s.busy += d
	s.self += d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
}

// tracer owns the tracks of one rung.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track returns a new track; call it before the goroutines start.
func (tr *tracer) track() *track {
	if tr == nil {
		return nil
	}
	t := &track{epoch: tr.epoch, req: -1}
	tr.tracks = append(tr.tracks, t)
	return t
}

// total sums the given kinds over every track.
func (tr *tracer) total(kinds ...kind) (s stat) {
	for _, t := range tr.tracks {
		for _, k := range kinds {
			s.calls += t.stats[k].calls
			s.busy += t.stats[k].busy
			s.self += t.stats[k].self
		}
	}
	return s
}

// traceEvent is one Chrome trace-event ("X": complete event, µs).
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args eventArgs `json:"args"`
}

// eventArgs carries what the trace-event format has no field for. ID
// and Parent index the spans of one pid/tid.
type eventArgs struct {
	Req    int32 `json:"req"`
	ID     int   `json:"id"`
	Parent int32 `json:"parent"`
}

// events renders the kept spans; pid tells the rungs of one file apart.
func (tr *tracer) events(pid int) []traceEvent {
	var out []traceEvent
	for tid, t := range tr.tracks {
		for i, s := range t.spans {
			out = append(out, traceEvent{
				Name: kindNames[s.kind].op, Cat: kindNames[s.kind].layer, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: pid, Tid: tid,
				Args: eventArgs{Req: s.req, ID: i, Parent: s.parent},
			})
		}
	}
	return out
}

func writeSpanFile(path string, events []traceEvent) error {
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rungCounts are the counts one rung's decorators make at the layer
// boundaries, shared by all of them.
type rungCounts struct {
	pageSize int64
	// backendCalls and backendPages tally the calls the cache makes into
	// whatever sits directly below it, and the pages they move.
	backendCalls, backendPages atomic.Int64
	// diskRequests counts the requests the arrays served (a run of n
	// pages is n); batchRequests the share that came through ServeBatch.
	diskRequests, batchRequests atomic.Int64
}

func (c *rungCounts) fromCache(bytes int64) {
	c.backendCalls.Add(1)
	c.backendPages.Add((bytes + c.pageSize - 1) / c.pageSize)
}

// reqTable lets a span recorded on the far side of the shared queue —
// the device serving an entry some other goroutine submitted — recover
// the request it belongs to: lanes note the request under the entry's
// leading offset, the device takes it back.
type reqTable struct {
	mu sync.Mutex
	m  map[int64][]int32
}

func (rt *reqTable) put(off int64, req int32) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.m[off] = append(rt.m[off], req)
	rt.mu.Unlock()
}

func (rt *reqTable) take(off int64) int32 {
	if rt == nil {
		return -1
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	q := rt.m[off]
	if len(q) == 0 {
		return -1
	}
	if len(q) == 1 {
		delete(rt.m, off)
	} else {
		rt.m[off] = q[1:]
	}
	return q[0]
}

// diskSpans decorates a disk array with simdisk spans. It forwards
// everything the array offers the cache (Backend, RunBackend,
// BatchBackend) and the queue (sharedq.Device) and nothing more: were
// it to drop AccessRun, or grow an AccessAsync the array lacks, the
// cache would take a path the wired store never takes.
type diskSpans struct {
	dev *simdisk.Array
	t   *track
	// mu is set when several goroutines reach this array (the write-back
	// view, the array under the queue) and so share its track.
	mu     *sync.Mutex
	counts *rungCounts
	// underQueue marks the array the shared queue dispatches to: its
	// caller is the queue, not the cache, and reqs recovers the request
	// each entry was submitted for.
	underQueue bool
	reqs       *reqTable
}

func (d *diskSpans) enter(k kind, off, bytes, requests int64) {
	if !d.underQueue {
		d.counts.fromCache(bytes)
	}
	d.counts.diskRequests.Add(requests)
	if d.mu != nil {
		d.mu.Lock()
		d.t.req = d.reqs.take(off)
	}
	d.t.begin(k)
}

func (d *diskSpans) leave() {
	d.t.end()
	if d.mu != nil {
		d.mu.Unlock()
	}
}

func (d *diskSpans) Access(now time.Time, req simdisk.Request) (time.Time, time.Duration) {
	d.enter(kDiskAccess, req.Offset, req.Length, 1)
	defer d.leave()
	return d.dev.Access(now, req)
}

func (d *diskSpans) AccessRun(now time.Time, r simdisk.Run) (time.Time, time.Duration) {
	d.enter(kDiskRun, r.Offset, r.Length*r.Count, r.Count)
	defer d.leave()
	return d.dev.AccessRun(now, r)
}

func (d *diskSpans) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	d.counts.batchRequests.Add(int64(len(reqs)))
	d.enter(kDiskBatch, batchOffset(reqs), batchBytes(reqs), int64(len(reqs)))
	defer d.leave()
	return d.dev.ServeBatch(now, reqs, policy)
}

func (d *diskSpans) Head() int64 { return d.dev.Head() }

func batchBytes(reqs []simdisk.Request) (n int64) {
	for _, r := range reqs {
		n += r.Length
	}
	return n
}

func batchOffset(reqs []simdisk.Request) int64 {
	if len(reqs) == 0 {
		return -1
	}
	return reqs[0].Offset
}

// laneSpans decorates a shared-queue lane with sharedq spans, forwarding
// the lane's whole capability set (Backend, RunBackend, BatchBackend,
// AsyncBackend). A lane belongs to one goroutine, so it records on that
// goroutine's track, nested under the cache span that called it.
type laneSpans struct {
	lane   *sharedq.Lane
	t      *track
	counts *rungCounts
	reqs   *reqTable
}

func (l *laneSpans) enter(k kind, off, bytes int64) {
	l.counts.fromCache(bytes)
	l.reqs.put(off, l.t.req)
	l.t.begin(k)
}

func (l *laneSpans) Access(now time.Time, req simdisk.Request) (time.Time, time.Duration) {
	l.enter(kQueueAccess, req.Offset, req.Length)
	defer l.t.end()
	return l.lane.Access(now, req)
}

func (l *laneSpans) AccessRun(now time.Time, r simdisk.Run) (time.Time, time.Duration) {
	l.enter(kQueueRun, r.Offset, r.Length*r.Count)
	defer l.t.end()
	return l.lane.AccessRun(now, r)
}

func (l *laneSpans) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	l.enter(kQueueBatch, batchOffset(reqs), batchBytes(reqs))
	defer l.t.end()
	return l.lane.ServeBatch(now, reqs, policy)
}

func (l *laneSpans) AccessAsync(now time.Time, req simdisk.Request) time.Time {
	l.enter(kQueueAsync, req.Offset, req.Length)
	defer l.t.end()
	return l.lane.AccessAsync(now, req)
}

func (l *laneSpans) AccessRunAsync(now time.Time, r simdisk.Run) time.Time {
	l.enter(kQueueAsync, r.Offset, r.Length*r.Count)
	defer l.t.end()
	return l.lane.AccessRunAsync(now, r)
}
