package sharedq

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simdisk"
)

var t0 = time.Unix(0, 0).UTC()

// recorder wraps a Device and records the leading offset of each call in
// dispatch order, so tests can assert the policy's choice sequence.
type recorder struct {
	dev     Device
	offsets []int64
}

func (r *recorder) Access(now time.Time, req simdisk.Request) (time.Time, time.Duration) {
	r.offsets = append(r.offsets, req.Offset)
	return r.dev.Access(now, req)
}

func (r *recorder) AccessRun(now time.Time, run simdisk.Run) (time.Time, time.Duration) {
	r.offsets = append(r.offsets, run.Offset)
	return r.dev.AccessRun(now, run)
}

func (r *recorder) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	r.offsets = append(r.offsets, reqs[0].Offset)
	return r.dev.ServeBatch(now, reqs, policy)
}

func (r *recorder) Head() int64 { return r.dev.Head() }

func newRecorded(t *testing.T, policy simdisk.SchedPolicy) (*Queue, *recorder) {
	t.Helper()
	rec := &recorder{dev: simdisk.MustNew(simdisk.MemoryBackedParams())}
	return MustNew(rec, policy), rec
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, simdisk.FCFS); err == nil {
		t.Fatal("New(nil device) succeeded")
	}
	if _, err := New(simdisk.MustNew(simdisk.MemoryBackedParams()), simdisk.SchedPolicy(99)); err == nil {
		t.Fatal("New(invalid policy) succeeded")
	}
}

// TestSoleLaneMatchesBareDevice pins the inline fast path: with one
// registered lane and nothing pending, every submission — blocking,
// async, or batch — returns exactly what the bare device would, which is
// what makes a single-lane shared queue equivalent to the private view.
func TestSoleLaneMatchesBareDevice(t *testing.T) {
	bare := simdisk.MustNew(simdisk.MemoryBackedParams())
	q := MustNew(simdisk.MustNew(simdisk.MemoryBackedParams()), simdisk.SSTF)
	lane := q.NewLane(t0)

	now := t0
	for i, req := range []simdisk.Request{
		{Offset: 4096, Length: 65536},
		{Offset: 1 << 24, Length: 4096, Write: true},
		{Offset: 0, Length: 8192},
	} {
		wd, ws := bare.Access(now, req)
		gd, gs := lane.Access(now, req)
		if !gd.Equal(wd) || gs != ws {
			t.Fatalf("Access %d: got (%v,%v) want (%v,%v)", i, gd, gs, wd, ws)
		}
		ad := lane.AccessAsync(gd, req)
		wad, _ := bare.Access(wd, req)
		if !ad.Equal(wad) {
			t.Fatalf("AccessAsync %d: got %v want %v (sole lane must serve inline)", i, ad, wad)
		}
		now = ad
	}

	run := simdisk.Run{Offset: 1 << 20, Length: 1 << 16, Count: 4, Write: true}
	wd, ws := bare.AccessRun(now, run)
	gd, gs := lane.AccessRun(now, run)
	if !gd.Equal(wd) || gs != ws {
		t.Fatalf("AccessRun: got (%v,%v) want (%v,%v)", gd, gs, wd, ws)
	}

	reqs := []simdisk.Request{
		{Offset: 3 << 20, Length: 4096, Write: true},
		{Offset: 1 << 20, Length: 4096, Write: true},
		{Offset: 2 << 20, Length: 4096, Write: true},
	}
	wres, wend := bare.ServeBatch(wd, reqs, simdisk.SCAN)
	gres, gend := lane.ServeBatch(gd, reqs, simdisk.SCAN)
	if !gend.Equal(wend) || len(gres) != len(wres) {
		t.Fatalf("ServeBatch: got end %v (%d results) want %v (%d)", gend, len(gres), wend, len(wres))
	}
	for i := range wres {
		if gres[i] != wres[i] {
			t.Fatalf("ServeBatch result %d: got %+v want %+v", i, gres[i], wres[i])
		}
	}

	st := q.Stats()
	if st.Dispatches == 0 || st.Dispatches != st.SyncDispatches+st.AsyncDispatches {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.QueueDelay != 0 {
		t.Fatalf("sole lane accumulated queue delay %v", st.QueueDelay)
	}
}

// TestGateHoldsUntilLanesPass pins the conservative gate: an async entry
// is not dispatched while any unparked, unblocked lane's free bound has
// not passed the decision time — and is dispatched as soon as the last
// straggler advances.
func TestGateHoldsUntilLanesPass(t *testing.T) {
	q, rec := newRecorded(t, simdisk.FCFS)
	a := q.NewLane(t0)
	b := q.NewLane(t0)

	a.AccessAsync(t0.Add(time.Millisecond), simdisk.Request{Offset: 4096, Length: 4096})
	if n := len(rec.offsets); n != 0 {
		t.Fatalf("dispatched %d entries with both lanes gating", n)
	}
	// b passes the decision time; a (the submitter itself) still gates.
	b.Advance(t0.Add(10 * time.Millisecond))
	if n := len(rec.offsets); n != 0 {
		t.Fatalf("dispatched %d entries with submitter still gating", n)
	}
	a.Advance(t0.Add(10 * time.Millisecond))
	if n := len(rec.offsets); n != 1 {
		t.Fatalf("dispatched %d entries after all lanes passed, want 1", n)
	}
}

// TestFCFSOrdersByArrival pins the FCFS total order across lanes:
// dispatch follows arrival timestamps, not submission (wall-clock) order.
func TestFCFSOrdersByArrival(t *testing.T) {
	q, rec := newRecorded(t, simdisk.FCFS)
	a := q.NewLane(t0)
	b := q.NewLane(t0)

	// a submits later simulated arrivals first, in wall-clock order.
	a.AccessAsync(t0.Add(3*time.Millisecond), simdisk.Request{Offset: 300, Length: 4096})
	b.AccessAsync(t0.Add(1*time.Millisecond), simdisk.Request{Offset: 100, Length: 4096})
	a.AccessAsync(t0.Add(5*time.Millisecond), simdisk.Request{Offset: 500, Length: 4096})
	b.AccessAsync(t0.Add(2*time.Millisecond), simdisk.Request{Offset: 200, Length: 4096})
	a.Park()
	b.Park()

	want := []int64{100, 200, 300, 500}
	if len(rec.offsets) != len(want) {
		t.Fatalf("dispatched %v, want %v", rec.offsets, want)
	}
	for i, off := range want {
		if rec.offsets[i] != off {
			t.Fatalf("dispatch order %v, want %v", rec.offsets, want)
		}
	}
}

// TestSSTFPicksNearestHead pins the SSTF choice: among entries arrived by
// the decision time, the one closest to the current head goes first.
func TestSSTFPicksNearestHead(t *testing.T) {
	q, rec := newRecorded(t, simdisk.SSTF)
	a := q.NewLane(t0)
	q.NewLane(t0).Park() // second lane forces enqueueing, parked so it never gates

	now := t0.Add(time.Millisecond)
	const mb = 1 << 20
	a.AccessAsync(now, simdisk.Request{Offset: 1000 * mb, Length: 4096})
	a.AccessAsync(now, simdisk.Request{Offset: 10 * mb, Length: 4096})
	a.AccessAsync(now, simdisk.Request{Offset: 500 * mb, Length: 4096})
	a.Park()

	// Head starts at 0: nearest is 10 MB, then 500 MB, then 1000 MB.
	want := []int64{10 * mb, 500 * mb, 1000 * mb}
	for i, off := range want {
		if i >= len(rec.offsets) || rec.offsets[i] != off {
			t.Fatalf("SSTF dispatch order %v, want %v", rec.offsets, want)
		}
	}
}

// TestSCANSweepsThenReverses pins the elevator: ascending entries are
// served in offset order while sweeping up; after turnaround the sweep
// serves descending offsets.
// TestSSTFSeekTieFallsBackToArrivalOrder puts two entries the same
// distance from the head, one on each side, and checks the FCFS order
// decides between them whichever side the earlier one sits on.
func TestSSTFSeekTieFallsBackToArrivalOrder(t *testing.T) {
	const mb = 1 << 20
	for _, side := range []int64{-1, 1} {
		q, rec := newRecorded(t, simdisk.SSTF)
		a := q.NewLane(t0)
		// Served inline while a is the only lane: the head ends at 100 MB.
		a.Access(t0, simdisk.Request{Offset: 100*mb - 4096, Length: 4096})
		b := q.NewLane(t0)
		now := t0.Add(time.Second)
		// Same arrival, so lane a's entry is the earlier in FCFS order.
		a.AccessAsync(now, simdisk.Request{Offset: 100*mb + side*10*mb, Length: 4096})
		b.AccessAsync(now, simdisk.Request{Offset: 100*mb - side*10*mb, Length: 4096})
		a.Park()
		b.Park()
		want := []int64{100*mb - 4096, 100*mb + side*10*mb, 100*mb - side*10*mb}
		if len(rec.offsets) != len(want) {
			t.Fatalf("side %d: SSTF order %v, want %v", side, rec.offsets, want)
		}
		for i, off := range want {
			if rec.offsets[i] != off {
				t.Fatalf("side %d: SSTF order %v, want %v", side, rec.offsets, want)
			}
		}
	}
}

func TestSCANSweepsThenReverses(t *testing.T) {
	q, rec := newRecorded(t, simdisk.SCAN)
	a := q.NewLane(t0)
	q.NewLane(t0).Park()

	now := t0.Add(time.Millisecond)
	const mb = 1 << 20
	for _, off := range []int64{700, 100, 400} {
		a.AccessAsync(now, simdisk.Request{Offset: off * mb, Length: 4096})
	}
	a.Park()
	// Upward sweep from head 0: 100, 400, 700.
	want := []int64{100 * mb, 400 * mb, 700 * mb}
	for i, off := range want {
		if i >= len(rec.offsets) || rec.offsets[i] != off {
			t.Fatalf("SCAN up-sweep order %v, want %v", rec.offsets, want)
		}
	}

	// Head is now past 700 MB; lower offsets force a turnaround, and the
	// down sweep serves them descending.
	now = now.Add(100 * time.Millisecond)
	a.Advance(now)
	for _, off := range []int64{200, 600, 50} {
		a.AccessAsync(now, simdisk.Request{Offset: off * mb, Length: 4096})
	}
	a.Park()
	wantAll := append(want, 600*mb, 200*mb, 50*mb)
	if len(rec.offsets) != len(wantAll) {
		t.Fatalf("SCAN full order %v, want %v", rec.offsets, wantAll)
	}
	for i, off := range wantAll {
		if rec.offsets[i] != off {
			t.Fatalf("SCAN full order %v, want %v", rec.offsets, wantAll)
		}
	}
}

// TestBlockingContentionIsDeterministic runs two goroutine lanes whose
// blocking submissions contend; whatever the wall-clock interleaving,
// the dispatch order and completions are fixed by simulated timestamps,
// and the loser's completion includes queueing delay.
func TestBlockingContentionIsDeterministic(t *testing.T) {
	run := func() (time.Time, time.Time, Stats) {
		q := MustNew(simdisk.MustNew(simdisk.MemoryBackedParams()), simdisk.FCFS)
		a := q.NewLane(t0)
		b := q.NewLane(t0)
		var doneA, doneB time.Time
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			doneA, _ = a.Access(t0.Add(time.Millisecond), simdisk.Request{Offset: 0, Length: 1 << 20})
			a.Park() // done submitting: stop gating, as an idle session would
		}()
		go func() {
			defer wg.Done()
			doneB, _ = b.Access(t0.Add(time.Millisecond), simdisk.Request{Offset: 1 << 30, Length: 1 << 20})
			b.Park()
		}()
		wg.Wait()
		return doneA, doneB, q.Stats()
	}

	dA, dB, st := run()
	if !dB.After(dA) {
		t.Fatalf("FCFS tie broke against lane order: a done %v, b done %v", dA, dB)
	}
	if st.QueueDelay <= 0 {
		t.Fatalf("contending lanes accumulated no queue delay: %+v", st)
	}
	for i := 0; i < 20; i++ {
		a2, b2, st2 := run()
		if !a2.Equal(dA) || !b2.Equal(dB) || st2 != st {
			t.Fatalf("run %d diverged: (%v,%v,%+v) vs (%v,%v,%+v)", i, a2, b2, st2, dA, dB, st)
		}
	}
}

// TestAsyncDispatchAccruesQueueDelay pins the stat fix: an async
// (write-back style) submission that waits behind another lane's work
// contributes its wait to QueueDelay just like a blocked sync one —
// read-heavy contended runs used to report "queue delay 0s" because
// only sync dispatches accrued.
func TestAsyncDispatchAccruesQueueDelay(t *testing.T) {
	q := MustNew(simdisk.MustNew(simdisk.MemoryBackedParams()), simdisk.FCFS)
	a := q.NewLane(t0)
	b := q.NewLane(t0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// A long transfer that occupies the device first (FCFS ties break
		// by lane order).
		a.Access(t0.Add(time.Millisecond), simdisk.Request{Offset: 0, Length: 1 << 20})
		a.Park()
	}()
	go func() {
		defer wg.Done()
		b.AccessAsync(t0.Add(time.Millisecond), simdisk.Request{Offset: 1 << 30, Length: 1 << 20, Write: true})
		b.Park()
	}()
	wg.Wait()
	st := q.Stats()
	if st.AsyncDispatches == 0 {
		t.Fatalf("async submission never dispatched: %+v", st)
	}
	if st.QueueDelay <= 0 {
		t.Fatalf("async dispatch behind a busy device accrued no queue delay: %+v", st)
	}
}

// TestReleaseServesLeftovers pins Release semantics: a lane's pending
// async entries survive its release and are served once nothing gates.
func TestReleaseServesLeftovers(t *testing.T) {
	q, rec := newRecorded(t, simdisk.FCFS)
	a := q.NewLane(t0)
	b := q.NewLane(t0)

	a.AccessAsync(t0.Add(time.Millisecond), simdisk.Request{Offset: 4096, Length: 4096})
	a.AccessAsync(t0.Add(2*time.Millisecond), simdisk.Request{Offset: 8192, Length: 4096})
	a.Release()
	if n := len(rec.offsets); n != 0 {
		t.Fatalf("dispatched %d entries while b still gates", n)
	}
	b.Park()
	if n := len(rec.offsets); n != 2 {
		t.Fatalf("dispatched %d entries after release+park, want 2", n)
	}
	if q.Lanes() != 1 {
		t.Fatalf("Lanes() = %d after release, want 1", q.Lanes())
	}
}

// TestLateLaneFlooredAtEdge pins the mid-flight join rule: a lane created
// after dispatches have happened cannot submit into the served past.
func TestLateLaneFlooredAtEdge(t *testing.T) {
	q, rec := newRecorded(t, simdisk.FCFS)
	a := q.NewLane(t0)
	at := t0.Add(50 * time.Millisecond)
	a.Access(at, simdisk.Request{Offset: 0, Length: 4096}) // sole lane, inline

	late := q.NewLane(t0) // asks to start at t0, floored at the edge
	a.Park()
	d := late.AccessAsync(t0, simdisk.Request{Offset: 4096, Length: 4096})
	if d.Before(at) {
		t.Fatalf("late lane submitted at %v, before the dispatch edge %v", d, at)
	}
	late.Park()
	if n := len(rec.offsets); n != 2 {
		t.Fatalf("dispatched %d entries, want 2", n)
	}
}
