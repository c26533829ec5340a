package sharedq

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/simdisk"
)

// The reference dispatcher: the queue's selection as it was before the
// pending set became a heap feeding a simdisk.Elevator. It finds the
// earliest arrival by scanning every pending entry and picks every
// policy, FCFS included, by a linear scan, keeping its own SCAN
// direction. It shares the rest of the queue's bookkeeping (admission,
// the lanes' gate state, serveLocked's device call and stats), so a
// difference between the two runs can only come from how the queue
// chooses. Nothing ever reaches q.arrived here: q.pending serves the
// reference as a plain slice.

func (p *refPort) dispatchLocked(q *Queue) {
	for {
		e := p.selectLocked(q)
		if e == nil {
			return
		}
		q.serveLocked(e)
	}
}

func (p *refPort) selectLocked(q *Queue) *entry {
	if len(q.pending) == 0 {
		return nil
	}
	earliest := q.pending[0].arrival
	for _, e := range q.pending[1:] {
		earliest = clock.MinTime(earliest, e.arrival)
	}
	s := clock.MaxTime(q.busy, earliest)
	for l := range q.lanes {
		if l.parked || l.syncPending > 0 {
			continue
		}
		if !clock.MaxTime(l.horizon, l.lastArrival).After(s) {
			return nil
		}
	}
	return p.pickLocked(q, s)
}

func (p *refPort) pickLocked(q *Queue, s time.Time) *entry {
	var best *entry
	head := q.dev.Head()
	better := func(e, b *entry) bool {
		switch q.policy {
		case simdisk.SSTF:
			de, db := absDist(e.offset(), head), absDist(b.offset(), head)
			if de != db {
				return de < db
			}
		case simdisk.SCAN:
			eUp, bUp := e.offset() >= head, b.offset() >= head
			if p.scanUp {
				if eUp != bUp {
					return eUp
				}
				if e.offset() != b.offset() {
					if eUp {
						return e.offset() < b.offset()
					}
					return e.offset() > b.offset()
				}
			} else {
				down := func(off int64) bool { return off <= head }
				if down(e.offset()) != down(b.offset()) {
					return down(e.offset())
				}
				if e.offset() != b.offset() {
					if down(e.offset()) {
						return e.offset() > b.offset()
					}
					return e.offset() < b.offset()
				}
			}
		}
		return arrivalLess(e, b)
	}
	at := -1
	for i, e := range q.pending {
		if e.arrival.After(s) {
			continue
		}
		if best == nil || better(e, best) {
			best, at = e, i
		}
	}
	if best != nil && q.policy == simdisk.SCAN {
		if best.offset() > head {
			p.scanUp = true
		} else if best.offset() < head {
			p.scanUp = false
		}
	}
	if best != nil {
		heap.Remove(&q.pending, at)
	}
	return best
}

func absDist(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// submission is one seeded submission, replayable against either port.
type submission struct {
	kind   opKind
	sync   bool
	now    time.Time
	req    simdisk.Request
	run    simdisk.Run
	reqs   []simdisk.Request
	policy simdisk.SchedPolicy
}

// port is the lane API as the differential drives it. submit returns once
// the submission has been served inline or sits in the queue; a lane with
// a blocking submission in the queue is blocked until it is served.
type port interface {
	submit(l *Lane, s submission)
	advance(l *Lane, now time.Time)
	park(l *Lane)
	release(l *Lane)
	// ready waits until a lane that is no longer blocked may act again.
	ready(l *Lane)
}

func blocked(l *Lane) bool {
	l.q.mu.Lock()
	defer l.q.mu.Unlock()
	return l.syncPending > 0
}

// queuePort drives the queue's public API. A blocking submission runs
// on its own goroutine, and submit waits until it is either served or
// parked in the queue, so the driver's operations stay totally ordered.
type queuePort struct {
	waiting map[*Lane]chan struct{}
}

func (p *queuePort) submit(l *Lane, s submission) {
	if !s.sync {
		if s.kind == opRun {
			l.AccessRunAsync(s.now, s.run)
		} else {
			l.AccessAsync(s.now, s.req)
		}
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		switch s.kind {
		case opRun:
			l.AccessRun(s.now, s.run)
		case opBatch:
			l.ServeBatch(s.now, s.reqs, s.policy)
		default:
			l.Access(s.now, s.req)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if blocked(l) {
			p.waiting[l] = done
			return
		}
		runtime.Gosched()
	}
}

func (p *queuePort) advance(l *Lane, now time.Time) { l.Advance(now) }
func (p *queuePort) park(l *Lane)                   { l.Park() }
func (p *queuePort) release(l *Lane)                { l.Release() }

func (p *queuePort) ready(l *Lane) {
	if done, ok := p.waiting[l]; ok {
		<-done
		delete(p.waiting, l)
	}
}

// refPort replays the public API's state changes under the reference
// dispatcher. Nothing blocks: a blocking submission just leaves its lane
// with syncPending set until the reference serves it.
type refPort struct {
	// scanUp is the reference's SCAN direction.
	scanUp bool
}

func (p *refPort) submit(l *Lane, s submission) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	e := &entry{kind: s.kind, sync: s.sync, req: s.req, run: s.run, reqs: s.reqs, policy: s.policy}
	if l.admitLocked(s.now, e) {
		p.dispatchLocked(q)
	}
}

func (p *refPort) advance(l *Lane, now time.Time) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	l.parked = false
	if now.After(l.horizon) {
		l.horizon = now
	}
	p.dispatchLocked(q)
}

func (p *refPort) park(l *Lane) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	l.parked = true
	p.dispatchLocked(q)
}

func (p *refPort) release(l *Lane) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.lanes, l)
	l.parked = true
	p.dispatchLocked(q)
}

// ready takes the token serveLocked left for a served blocking
// submission, as the blocked submitter would have.
func (p *refPort) ready(l *Lane) {
	select {
	case <-l.served:
	default:
	}
}

// dispatch is one device call as the differential records it. lane and
// seq name the submission (seq counts the lane's submissions, inline
// ones included); arrival is the time the device was asked to start it.
type dispatch struct {
	lane, seq     int
	arrival, done time.Time
}

// dispatchLog is a Device that records every call. Each submission's
// leading request length encodes its driver-assigned id, which names it
// by (lane, seq) without touching the queue's entries.
type dispatchLog struct {
	dev   Device
	names []dispatch // by id: lane and seq
	log   []dispatch
}

const idUnit = 512 // leading request length = (id+1) * idUnit

func (d *dispatchLog) note(now time.Time, length int64, done time.Time) {
	n := d.names[length/idUnit-1]
	d.log = append(d.log, dispatch{lane: n.lane, seq: n.seq, arrival: now, done: done})
}

func (d *dispatchLog) Access(now time.Time, req simdisk.Request) (time.Time, time.Duration) {
	done, svc := d.dev.Access(now, req)
	d.note(now, req.Length, done)
	return done, svc
}

func (d *dispatchLog) AccessRun(now time.Time, r simdisk.Run) (time.Time, time.Duration) {
	done, svc := d.dev.AccessRun(now, r)
	d.note(now, r.Length, done)
	return done, svc
}

func (d *dispatchLog) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	length := reqs[0].Length
	res, end := d.dev.ServeBatch(now, reqs, policy)
	d.note(now, length, end)
	return res, end
}

func (d *dispatchLog) Head() int64 { return d.dev.Head() }

// checkHeap fails unless q.pending is a min-heap in arrivalLess order
// and the elevator's entries are sorted by (offset, arrivalLess) and
// arrived by the busy horizon — the invariant that lets selectLocked
// take S = busy while any of them waits.
func checkHeap(t *testing.T, q *Queue) {
	t.Helper()
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, e := range q.pending {
		if i > 0 && arrivalLess(e, q.pending[(i-1)/2]) {
			t.Fatalf("pending[%d] orders before its parent", i)
		}
	}
	if q.arrived == nil {
		return
	}
	arrived := q.arrived.Pending()
	for i, e := range arrived {
		if i > 0 && (e.offset() < arrived[i-1].offset() || e.offset() == arrived[i-1].offset() && !arrivalLess(arrived[i-1], e)) {
			t.Fatalf("arrived[%d] orders before arrived[%d]", i, i-1)
		}
		if e.arrival.After(q.busy) {
			t.Fatalf("arrived[%d] arrives at %v, after the busy horizon %v", i, e.arrival, q.busy)
		}
	}
}

// driveQueue runs one seeded random program of submissions, advances,
// parks and releases over nLanes lanes through p, then parks every lane
// so the queue drains, and returns the device's dispatch log and the
// queue's stats. A released lane is replaced by a late joiner.
func driveQueue(t *testing.T, p port, policy simdisk.SchedPolicy, nLanes int, seed int64) ([]dispatch, Stats) {
	rng := rand.New(rand.NewSource(seed))
	dev := &dispatchLog{dev: simdisk.MustNew(simdisk.MemoryBackedParams())}
	q := MustNew(dev, policy)
	lanes := make([]*Lane, nLanes)
	at := make([]time.Time, nLanes)
	seqs := make(map[*Lane]int)
	for i := range lanes {
		lanes[i] = q.NewLane(t0)
		at[i] = t0
	}
	nextLength := func(l *Lane) int64 {
		dev.names = append(dev.names, dispatch{lane: l.id, seq: seqs[l]})
		seqs[l]++
		return int64(len(dev.names)) * idUnit
	}
	// Half the submissions continue their lane's stream where its last
	// one ended, which is often where the head stands when they are
	// picked (the SSTF and SCAN boundary cases); the rest land on a few
	// shared offsets, so seek ties are common.
	next := make([]int64, nLanes)
	offset := func(i int) int64 {
		if rng.Intn(2) == 0 {
			return next[i]
		}
		return int64(rng.Intn(64)) << 20
	}

	free := make([]int, 0, nLanes)
	for step := 0; step < 400; step++ {
		free = free[:0]
		for i, l := range lanes {
			if !blocked(l) {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			t.Fatalf("step %d: every lane is blocked", step)
		}
		i := free[rng.Intn(len(free))]
		l := lanes[i]
		p.ready(l)
		at[i] = at[i].Add(time.Duration(rng.Intn(40)) * time.Microsecond)
		write := rng.Intn(3) == 0
		switch r := rng.Intn(100); {
		case r < 55:
			req := simdisk.Request{Offset: offset(i), Length: nextLength(l), Write: write}
			next[i] = req.Offset + req.Length
			p.submit(l, submission{kind: opReq, sync: r >= 35, now: at[i], req: req})
		case r < 68:
			run := simdisk.Run{Offset: offset(i), Length: nextLength(l), Count: int64(1 + rng.Intn(4)), Write: write}
			next[i] = run.Offset + run.Length*run.Count
			p.submit(l, submission{kind: opRun, sync: r >= 62, now: at[i], run: run})
		case r < 74:
			reqs := []simdisk.Request{{Offset: offset(i), Length: nextLength(l), Write: true}}
			next[i] = reqs[0].Offset + reqs[0].Length
			for n := rng.Intn(4); n > 0; n-- {
				reqs = append(reqs, simdisk.Request{Offset: int64(rng.Intn(64)) << 20, Length: 4096, Write: true})
			}
			p.submit(l, submission{kind: opBatch, sync: true, now: at[i], reqs: reqs,
				policy: simdisk.SchedPolicy(rng.Intn(3))})
		case r < 85:
			p.advance(l, at[i].Add(time.Duration(rng.Intn(200))*time.Microsecond))
		case r < 96:
			p.park(l)
		default:
			p.release(l)
			lanes[i] = q.NewLane(at[i])
		}
		if _, ok := p.(*queuePort); ok {
			checkHeap(t, q)
		}
	}
	// Drain: park every lane that may act. A lane a park unblocks gates
	// again until it is parked too, hence the passes.
	for pass := 0; ; pass++ {
		idle := true
		for _, l := range lanes {
			if blocked(l) {
				idle = false
				continue
			}
			p.ready(l)
			p.park(l)
		}
		q.mu.Lock()
		left := q.depth()
		q.mu.Unlock()
		if idle && left == 0 {
			break
		}
		if pass == nLanes {
			t.Fatalf("%d entries still pending after %d drain passes", left, pass)
		}
	}
	return dev.log, q.Stats()
}

// TestHeapMatchesLinearScan is the differential for the pending-set heap:
// under every policy, for 1–8 lanes and several seeds, the queue's
// dispatch sequence — which submission, arriving when, done when — and
// its stats equal the linear-scan reference's, entry for entry.
func TestHeapMatchesLinearScan(t *testing.T) {
	for _, policy := range []simdisk.SchedPolicy{simdisk.FCFS, simdisk.SSTF, simdisk.SCAN} {
		for lanes := 1; lanes <= 8; lanes++ {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/lanes=%d/seed=%d", policy, lanes, seed), func(t *testing.T) {
					got, gotStats := driveQueue(t, &queuePort{waiting: map[*Lane]chan struct{}{}}, policy, lanes, seed)
					want, wantStats := driveQueue(t, &refPort{scanUp: true}, policy, lanes, seed)
					if len(got) != len(want) {
						t.Fatalf("%d dispatches, reference %d", len(got), len(want))
					}
					for i, w := range want {
						g := got[i]
						if g.lane != w.lane || g.seq != w.seq || !g.arrival.Equal(w.arrival) || !g.done.Equal(w.done) {
							t.Fatalf("dispatch %d: %+v, reference %+v", i, g, w)
						}
					}
					if gotStats != wantStats {
						t.Fatalf("stats %+v, reference %+v", gotStats, wantStats)
					}
					t.Logf("%d dispatches, %d batches, max pending %d", len(got), gotStats.Batches, gotStats.MaxPending)
					if lanes > 1 && gotStats.MaxPending < 2 {
						t.Fatalf("max pending %d: the program never built a queue", gotStats.MaxPending)
					}
				})
			}
		}
	}
}
