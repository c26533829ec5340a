// Package sharedq is the shared disk-queue subsystem: a discrete-event
// merge where the disk requests of many virtual-time lanes meet in one
// simulated command queue instead of each lane owning a private
// disk-timing view.
//
// The private-view model (fsim's default) is optimistic under
// concurrency: eight workers never queue behind each other, seek
// interleaving between streams is invisible, and the FCFS/SSTF/SCAN
// ablation only separates on the background write-back drain. This
// package makes contention real while keeping the repository's
// determinism bar: the dispatch order is a pure function of the lanes'
// simulated timestamps, never of goroutine scheduling.
//
// # Model
//
// A Queue fronts one Device (a *simdisk.Disk or *simdisk.Array — the
// existing simdisk cost model is reused unchanged).
// Each concurrent actor holds a Lane and submits timestamped requests;
// the queue dispatches the pending entry chosen by the configured
// scheduling policy among those that have "arrived" by the decision
// time, services it on the device (whose busy horizon turns into
// queueing delay exactly as a real command queue would), and hands the
// completion time back to blocked submitters.
//
// # Conservative dispatch
//
// Dispatch is conservative in the parallel-discrete-event sense: an
// entry is served only when no lane can still submit a request that
// should have gone first. Each lane carries a free bound — the earliest
// simulated time at which it could still submit:
//
//   - a lane blocked in a synchronous submission cannot submit anything
//     else, so it never gates dispatch;
//   - a parked lane (see Lane.Park) has promised not to submit until
//     something external wakes it, so it does not gate dispatch either;
//   - any other lane bounds future arrivals by max(horizon, last
//     arrival), where the horizon advances via Lane.Advance — the hook
//     fsim calls at the start of every operation.
//
// The decision time for the next dispatch is S = max(device busy
// horizon, earliest pending arrival). Once every gating lane's free
// bound is strictly past S, the serving set {pending entries with
// arrival <= S} is complete, and the policy picks from it: FCFS by
// (arrival, lane, sequence), SSTF by seek distance from the current
// head, SCAN by the elevator sweep with a persistent direction. All tie
// breaks are total orders, so the chosen sequence is identical across
// runs regardless of wall-clock interleaving.
//
// The pending set is a binary min-heap in FCFS order: the earliest
// arrival that fixes S is the heap top in O(1), and FCFS serves that
// top. Under SSTF and SCAN, once the gate opens, every entry the
// decision time has reached moves off the heap into a simdisk.Elevator,
// the same offset-sorted set whose picks order a ServeBatch sweep. S
// never moves backwards, so an entry in the elevator stays in the
// serving set until it is served. The elevator keeps its gap at the
// head, so a dispatch costs O(log n) in the queue's depth under every
// policy, however far the lanes have run ahead.
//
// # Asynchronous submissions
//
// Requests issued while the caller holds a cache shard lock (eviction
// write-backs, readahead) must not block: a lane waiting on a shard
// mutex held by another lane could otherwise never produce its
// earlier-timestamped request, deadlocking the merge on a causality
// inversion. Those go through AccessAsync/AccessRunAsync: enqueued
// fire-and-forget, with the submission time returned as the completion
// stand-in. When the queue has exactly one registered lane and nothing
// pending, every submission — sync or async — is served inline on the
// device, which makes the single-lane shared queue bit-identical to the
// private-view path.
package sharedq

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/simdisk"
)

// Device is the disk model behind the queue. Both *simdisk.Disk and
// *simdisk.Array satisfy it; the queue adds ordering and contention on
// top, never cost arithmetic of its own.
type Device interface {
	Access(now time.Time, req simdisk.Request) (done time.Time, service time.Duration)
	AccessRun(now time.Time, r simdisk.Run) (done time.Time, service time.Duration)
	ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time)
	Head() int64
}

// Stats counts what moved through the queue. Snapshot via Queue.Stats.
type Stats struct {
	// Dispatches is every served entry, including single-lane inline
	// serves; Sync/Async split it by submission kind (batches count as
	// sync — the flush sweep blocks on them).
	Dispatches      int64
	SyncDispatches  int64
	AsyncDispatches int64
	// Batches is the subset of dispatches that were ServeBatch sweeps.
	Batches int64
	// QueueDelay accumulates, over every queued dispatch (sync and
	// async alike), the time an entry spent waiting behind other lanes'
	// work: completion minus arrival minus pure service. This is the
	// contention the private model could not see.
	QueueDelay time.Duration
	// MaxPending is the high-water mark of the pending set.
	MaxPending int
}

// Queue is the shared command queue. Construct with New; all methods
// are safe for concurrent use by the lanes' goroutines.
type Queue struct {
	dev    Device
	policy simdisk.SchedPolicy

	mu sync.Mutex
	// lanes is the registered, unreleased lane set — the gate domain.
	lanes map[*Lane]struct{}
	// pending holds submitted entries across all lanes that no decision
	// time has reached yet, heap-ordered by arrivalLess.
	pending pendingHeap
	// arrived holds, under SSTF and SCAN, the unserved entries a decision
	// time has reached; the policy picks from it. Nil under FCFS.
	arrived *simdisk.Elevator[*entry]
	// busy is the completion horizon of dispatched work: the simulated
	// instant the device frees up (max over completions for arrays).
	busy time.Time
	// edge is the latest arrival ever dispatched. Lanes joining
	// mid-flight start at or past it, so a newcomer cannot submit into
	// the already-served past.
	edge   time.Time
	nextID int
	stats  Stats
}

// Lane is one actor's port into the queue. A Lane must be used by a
// single goroutine at a time (the same contract as fsim.Session); it
// satisfies buffercache's Backend and AsyncBackend, so a cache IO can
// sit directly on it.
type Lane struct {
	q  *Queue
	id int
	// horizon is the lane's promise: no future submission arrives
	// strictly before it (advanced by Advance at each operation start).
	horizon time.Time
	// lastArrival enforces per-lane arrival monotonicity; together with
	// horizon it forms the free bound the dispatch gate checks.
	lastArrival time.Time
	// seq numbers this lane's submissions for the FCFS tie break.
	seq uint64
	// syncPending counts blocking submissions in flight (0 or 1); such
	// a lane cannot submit more, so it never gates dispatch.
	syncPending int
	parked      bool
	// served carries one token per blocking submission, sent when the
	// queue serves it: the submitter waits on it outside the queue lock,
	// and no other lane is woken.
	served chan struct{}
}

// opKind selects how an entry hits the device when dispatched.
type opKind uint8

const (
	opReq opKind = iota
	opRun
	opBatch
)

// entry is one submitted request (or request batch) waiting in the
// shared queue.
type entry struct {
	lane    *Lane
	seq     uint64
	kind    opKind
	arrival time.Time

	req    simdisk.Request
	run    simdisk.Run
	reqs   []simdisk.Request   // opBatch: the submitter's slice, untouched while it blocks
	policy simdisk.SchedPolicy // opBatch: the submitter's sweep policy

	sync    bool
	done    time.Time
	service time.Duration
	results []simdisk.BatchResult // opBatch
}

// offset is the entry's leading device offset, the policy sort key.
func (e *entry) offset() int64 {
	switch e.kind {
	case opRun:
		return e.run.Offset
	case opBatch:
		return e.reqs[0].Offset
	default:
		return e.req.Offset
	}
}

// New builds a queue over dev ordered by policy.
func New(dev Device, policy simdisk.SchedPolicy) (*Queue, error) {
	if dev == nil {
		return nil, fmt.Errorf("sharedq: nil device")
	}
	if !policy.Valid() {
		return nil, fmt.Errorf("sharedq: invalid scheduling policy %d", int(policy))
	}
	q := &Queue{
		dev:    dev,
		policy: policy,
		lanes:  make(map[*Lane]struct{}),
	}
	if policy != simdisk.FCFS {
		q.arrived = simdisk.NewElevator(policy, (*entry).offset, arrivalLess)
	}
	return q, nil
}

// MustNew is New for validated configurations.
func MustNew(dev Device, policy simdisk.SchedPolicy) *Queue {
	q, err := New(dev, policy)
	if err != nil {
		panic(err)
	}
	return q
}

// Policy returns the queue's scheduling policy.
func (q *Queue) Policy() simdisk.SchedPolicy { return q.policy }

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Lanes returns the number of registered lanes.
func (q *Queue) Lanes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes)
}

// NewLane registers a lane whose submissions begin no earlier than
// start. A lane joining an in-flight merge is floored at the queue's
// dispatch edge: it starts "now", not in the already-served past.
func (q *Queue) NewLane(start time.Time) *Lane {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := &Lane{
		q:           q,
		id:          q.nextID,
		horizon:     clock.MaxTime(start, q.edge),
		lastArrival: clock.MaxTime(start, q.edge),
		served:      make(chan struct{}, 1),
	}
	q.nextID++
	q.lanes[l] = struct{}{}
	return l
}

// Advance is the lane's lookahead promise: no future submission will
// arrive strictly before now. fsim calls it at the start of every
// operation; it also unparks the lane. Moving backwards is a no-op.
func (l *Lane) Advance(now time.Time) {
	q := l.q
	q.mu.Lock()
	l.parked = false
	if now.After(l.horizon) {
		l.horizon = now
	}
	q.dispatchLocked()
	q.mu.Unlock()
}

// Park declares the lane idle: it will not submit again until an
// external event (a new replay record, a request on the connection)
// wakes it through Advance or a submission. Parked lanes do not gate
// dispatch — this is what lets the merge finish when workers complete
// at different times.
func (l *Lane) Park() {
	q := l.q
	q.mu.Lock()
	l.parked = true
	q.dispatchLocked()
	q.mu.Unlock()
}

// Release unregisters the lane. Any of its still-pending asynchronous
// entries stay in the queue and are served normally; the lane must not
// submit after Release.
func (l *Lane) Release() {
	q := l.q
	q.mu.Lock()
	delete(q.lanes, l)
	l.parked = true
	q.dispatchLocked()
	q.mu.Unlock()
}

// Access submits a blocking request: the caller's simulated operation
// cannot proceed until the device has served it. The returned
// completion includes any time spent queued behind other lanes.
func (l *Lane) Access(now time.Time, req simdisk.Request) (time.Time, time.Duration) {
	e := &entry{kind: opReq, req: req, sync: true}
	done := l.submit(now, e)
	return done, e.service
}

// AccessRun submits a blocking contiguous run, the cold path's bulk
// shape. The run is one scheduling unit: the policy orders it against
// other entries by its leading offset, and the device bills it through
// AccessRun unchanged.
func (l *Lane) AccessRun(now time.Time, r simdisk.Run) (time.Time, time.Duration) {
	e := &entry{kind: opRun, run: r, sync: true}
	done := l.submit(now, e)
	return done, e.service
}

// ServeBatch submits a blocking sweep (a flush of many dirty pages) as
// one scheduling unit, ordered internally by the submitter's policy
// when dispatched.
func (l *Lane) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	if len(reqs) == 0 {
		return nil, now
	}
	e := &entry{kind: opBatch, reqs: reqs, policy: policy, sync: true}
	done := l.submit(now, e)
	return e.results, done
}

// AccessAsync submits a fire-and-forget request — an eviction
// write-back or a readahead issued under a cache shard lock, where
// blocking would deadlock the merge. With one lane it is served inline
// and the true completion returns (preserving private-path equivalence);
// with contention it is enqueued and the submission time stands in.
func (l *Lane) AccessAsync(now time.Time, req simdisk.Request) time.Time {
	return l.submit(now, &entry{kind: opReq, req: req})
}

// AccessRunAsync is AccessAsync for contiguous runs.
func (l *Lane) AccessRunAsync(now time.Time, r simdisk.Run) time.Time {
	return l.submit(now, &entry{kind: opRun, run: r})
}

// submit is every submission's path. It returns the completion time of
// an entry served inline or of a blocking one once served, and the
// clamped submission time of an asynchronous entry left in the queue.
func (l *Lane) submit(now time.Time, e *entry) time.Time {
	q := l.q
	q.mu.Lock()
	if !l.admitLocked(now, e) {
		q.mu.Unlock()
		return e.done
	}
	q.dispatchLocked()
	q.mu.Unlock()
	if !e.sync {
		return e.arrival
	}
	<-l.served
	return e.done
}

// admitLocked stamps e as l's next submission, arriving at now clamped
// to the lane's promises. When l is the only registered lane and nothing
// is pending, it serves e inline and returns false — the fast path that
// makes a single-lane shared queue bit-identical to a private device.
// Otherwise it adds e to the pending set and returns true.
func (l *Lane) admitLocked(now time.Time, e *entry) bool {
	q := l.q
	e.lane, e.seq, e.arrival = l, l.seq, l.clampLocked(now)
	l.seq++
	l.parked = false
	l.lastArrival = e.arrival
	if _, ok := q.lanes[l]; ok && len(q.lanes) == 1 && q.depth() == 0 {
		q.serviceLocked(e)
		q.settleLocked(e)
		return false
	}
	if e.sync {
		l.syncPending++
	}
	heap.Push(&q.pending, e)
	if n := q.depth(); n > q.stats.MaxPending {
		q.stats.MaxPending = n
	}
	return true
}

// clampLocked enforces per-lane arrival monotonicity: a submission never
// lands before the lane's promise horizon or its previous arrival.
func (l *Lane) clampLocked(now time.Time) time.Time {
	now = clock.MaxTime(now, l.horizon)
	return clock.MaxTime(now, l.lastArrival)
}

// depth is the number of submitted, unserved entries.
func (q *Queue) depth() int { return len(q.pending) + q.arrived.Len() }

// dispatchLocked serves every entry that is safe to serve; serveLocked
// wakes each blocked submitter it completes. Called after every state
// change (submit, advance, park, release) — the gate only ever opens on
// one of those.
func (q *Queue) dispatchLocked() {
	for {
		e := q.selectLocked()
		if e == nil {
			return
		}
		q.serveLocked(e)
	}
}

// selectLocked removes and returns the next entry to serve, or returns
// nil when none is safe: the conservative gate plus the policy choice.
func (q *Queue) selectLocked() *entry {
	if q.depth() == 0 {
		return nil
	}
	// S = max(busy, earliest unserved arrival). An arrived entry was
	// reached by an earlier decision time, and the dispatch made then
	// pushed busy at least that far, so while one waits S is busy.
	s := q.busy
	if q.arrived.Len() == 0 {
		s = clock.MaxTime(s, q.pending[0].arrival)
	}
	// The gate: every lane that could still submit must be provably past
	// the decision time, else a not-yet-visible earlier request could
	// exist and the serving set is not complete.
	for l := range q.lanes {
		if l.parked || l.syncPending > 0 {
			continue
		}
		if !clock.MaxTime(l.horizon, l.lastArrival).After(s) {
			return nil
		}
	}
	if q.policy == simdisk.FCFS {
		// The FCFS order's minimum is the heap top, arrived by s since s
		// is at least its arrival.
		return heap.Pop(&q.pending).(*entry)
	}
	for len(q.pending) > 0 && !q.pending[0].arrival.After(s) {
		q.arrived.Insert(heap.Pop(&q.pending).(*entry))
	}
	return q.arrived.Pick(q.dev.Head())
}

// arrivalLess is the FCFS total order: arrival, then lane id, then the
// lane-local submission sequence.
func arrivalLess(e, b *entry) bool {
	if !e.arrival.Equal(b.arrival) {
		return e.arrival.Before(b.arrival)
	}
	if e.lane.id != b.lane.id {
		return e.lane.id < b.lane.id
	}
	return e.seq < b.seq
}

// pendingHeap is the pending set as a container/heap in arrivalLess
// order.
type pendingHeap []*entry

func (h pendingHeap) Len() int           { return len(h) }
func (h pendingHeap) Less(i, j int) bool { return arrivalLess(h[i], h[j]) }
func (h pendingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)        { *h = append(*h, x.(*entry)) }
func (h *pendingHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// serveLocked services e, already taken off the pending set, on the
// device at its arrival time; the device's busy horizon converts
// contention into queueing delay.
func (q *Queue) serveLocked(e *entry) {
	q.serviceLocked(e)
	q.settleLocked(e)
	if e.sync {
		e.lane.syncPending--
		e.lane.served <- struct{}{}
	}
	// Async (write-back) submissions wait behind other lanes' work just
	// like sync ones do — the delay lands on the flusher instead of a
	// blocked reader, but it is contention all the same, so both kinds
	// accrue. Inline sole-lane serves never wait and add nothing.
	if w := e.done.Sub(e.arrival) - e.service; w > 0 {
		q.stats.QueueDelay += w
	}
}

// serviceLocked runs e on the device at its arrival time, inline or
// dispatched alike.
func (q *Queue) serviceLocked(e *entry) {
	switch e.kind {
	case opRun:
		e.done, e.service = q.dev.AccessRun(e.arrival, e.run)
	case opBatch:
		e.results, e.done = q.dev.ServeBatch(e.arrival, e.reqs, e.policy)
		for _, r := range e.results {
			e.service += r.Service
		}
		q.stats.Batches++
	default:
		e.done, e.service = q.dev.Access(e.arrival, e.req)
	}
}

// settleLocked records a served entry in the queue's horizons and
// counters, so a later second lane joins a consistent merge.
func (q *Queue) settleLocked(e *entry) {
	q.busy = clock.MaxTime(q.busy, e.done)
	q.edge = clock.MaxTime(q.edge, e.arrival)
	q.stats.Dispatches++
	if e.sync {
		q.stats.SyncDispatches++
	} else {
		q.stats.AsyncDispatches++
	}
}
