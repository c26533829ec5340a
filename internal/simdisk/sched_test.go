package simdisk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// scatteredBatch builds a random-order batch across the disk.
func scatteredBatch(d *Disk, n int) []Request {
	reqs := make([]Request, n)
	cap := d.Params().Capacity
	for i := range reqs {
		// Deterministic scatter: jump around the disk in a fixed pattern.
		off := (int64(i*2654435761) % cap)
		if off < 0 {
			off += cap
		}
		reqs[i] = Request{Offset: off, Length: 64 << 10}
	}
	return reqs
}

func TestServeBatchEmptyAndSingle(t *testing.T) {
	d := MustNew(testParams())
	now := time.Unix(0, 0)
	res, end := d.ServeBatch(now, nil, FCFS)
	if res != nil || !end.Equal(now) {
		t.Fatal("empty batch should be a no-op")
	}
	res, end = d.ServeBatch(now, []Request{{Offset: 0, Length: 4096}}, SCAN)
	if len(res) != 1 || !end.Equal(res[0].Done) {
		t.Fatalf("single-request batch wrong: %+v", res)
	}
}

func TestServeBatchServesAllExactlyOnce(t *testing.T) {
	for _, policy := range []SchedPolicy{FCFS, SSTF, SCAN} {
		d := MustNew(testParams())
		reqs := scatteredBatch(d, 16)
		res, _ := d.ServeBatch(time.Unix(0, 0), reqs, policy)
		if len(res) != len(reqs) {
			t.Fatalf("%v: %d results for %d requests", policy, len(res), len(reqs))
		}
		for i, r := range res {
			if r.Index != i {
				t.Fatalf("%v: result %d has index %d", policy, i, r.Index)
			}
			if r.Service <= 0 {
				t.Fatalf("%v: request %d has no service time", policy, i)
			}
		}
		if got := d.Stats().Ops(); got != int64(len(reqs)) {
			t.Fatalf("%v: disk served %d ops, want %d", policy, got, len(reqs))
		}
	}
}

func TestSeekOptimizingPoliciesBeatFCFS(t *testing.T) {
	makespan := func(policy SchedPolicy) time.Duration {
		d := MustNew(testParams())
		reqs := scatteredBatch(d, 32)
		_, end := d.ServeBatch(time.Unix(0, 0), reqs, policy)
		return end.Sub(time.Unix(0, 0))
	}
	fcfs := makespan(FCFS)
	sstf := makespan(SSTF)
	scan := makespan(SCAN)
	if sstf >= fcfs {
		t.Fatalf("SSTF %v not faster than FCFS %v on scattered batch", sstf, fcfs)
	}
	if scan >= fcfs {
		t.Fatalf("SCAN %v not faster than FCFS %v on scattered batch", scan, fcfs)
	}
}

func TestSCANSweepsMonotonically(t *testing.T) {
	d := MustNew(testParams())
	reqs := scatteredBatch(d, 12)
	order := scheduleOrder(d.Head(), reqs, SCAN)
	// Offsets must rise (up sweep) then fall (down sweep): exactly one
	// direction change.
	changes := 0
	for i := 2; i < len(order); i++ {
		prevDelta := reqs[order[i-1]].Offset - reqs[order[i-2]].Offset
		delta := reqs[order[i]].Offset - reqs[order[i-1]].Offset
		if (prevDelta > 0) != (delta > 0) {
			changes++
		}
	}
	if changes > 1 {
		t.Fatalf("SCAN changed direction %d times: not an elevator", changes)
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	d := MustNew(testParams())
	reqs := scatteredBatch(d, 8)
	res, _ := d.ServeBatch(time.Unix(0, 0), reqs, FCFS)
	for i := 1; i < len(res); i++ {
		if res[i].Done.Before(res[i-1].Done) {
			t.Fatalf("FCFS completion order violated at %d", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "FCFS" || SSTF.String() != "SSTF" || SCAN.String() != "SCAN" {
		t.Fatal("policy names wrong")
	}
	if SchedPolicy(9).String() != "policy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

// refSSTFOrder is the greedy nearest-first order as a scan of the
// remainder per pick: the strictly nearest wins, so among equally near
// requests the lowest index does.
func refSSTFOrder(head int64, reqs []Request) []int {
	remaining := make([]int, len(reqs))
	for i := range remaining {
		remaining[i] = i
	}
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	var order []int
	for len(remaining) > 0 {
		best := 0
		bestDist := abs(reqs[remaining[0]].Offset - head)
		for i := 1; i < len(remaining); i++ {
			if dist := abs(reqs[remaining[i]].Offset - head); dist < bestDist {
				best, bestDist = i, dist
			}
		}
		idx := remaining[best]
		order = append(order, idx)
		head = reqs[idx].Offset + reqs[idx].Length
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return order
}

// TestSSTFOrderMatchesScan checks the elevator's SSTF batch order
// against the per-pick scan on seeded batches built to tie: offsets
// drawn from a few slots (duplicates, and equal distances on both sides
// of the head), lengths that land the head on, inside or past other
// requests, and zero lengths.
func TestSSTFOrderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		slots := 1 + rng.Intn(2*n)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Offset: int64(rng.Intn(slots)) * 4096, Length: int64(rng.Intn(4)) * 2048}
		}
		head := int64(rng.Intn(slots+2)-1) * 2048
		got := scheduleOrder(head, reqs, SSTF)
		if want := refSSTFOrder(head, reqs); !slices.Equal(got, want) {
			t.Fatalf("trial %d, head %d, %v:\norder %v\nscan  %v", trial, head, reqs, got, want)
		}
	}
}

// refSCANOrder is the batch SCAN order before the batch and online
// schedulers shared one elevator: every request at or past the start
// head in ascending offset order, then the rest in descending order.
// The head's movement through the batch plays no part.
func refSCANOrder(head int64, reqs []Request) []int {
	var up, down []int
	for idx := range reqs {
		if reqs[idx].Offset >= head {
			up = append(up, idx)
		} else {
			down = append(down, idx)
		}
	}
	sort.Slice(up, func(i, j int) bool { return reqs[up[i]].Offset < reqs[up[j]].Offset })
	sort.Slice(down, func(i, j int) bool { return reqs[down[i]].Offset > reqs[down[j]].Offset })
	return append(up, down...)
}

// TestSCANOrderMatchesTwoSortOnDisjointBatches checks the elevator's
// SCAN batch order against the two-sort reference on batches whose
// requests do not overlap: random spans with random heads, and the
// page-aligned write-back shape (distinct whole pages) the buffer cache
// flushes. On those the two rules agree.
func TestSCANOrderMatchesTwoSortOnDisjointBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		n := 1 + rng.Intn(40)
		const stride = 4 * 4096
		reqs := make([]Request, n)
		var head int64
		if trial%2 == 0 {
			// Write-back shape: distinct pages, the head on a page boundary.
			for i, page := range rng.Perm(4 * n)[:n] {
				reqs[i] = Request{Offset: int64(page) * 4096, Length: 4096, Write: true}
			}
			head = int64(rng.Intn(4*n+1)) * 4096
		} else {
			// Distinct slots, each span inside its own slot (zero lengths
			// included), heads anywhere, inside spans too.
			for i, slot := range rng.Perm(2 * n)[:n] {
				reqs[i] = Request{Offset: int64(slot)*stride + rng.Int63n(stride/2), Length: rng.Int63n(stride / 2)}
			}
			head = rng.Int63n(int64(2*n+1) * stride)
		}
		got := scheduleOrder(head, reqs, SCAN)
		if want := refSCANOrder(head, reqs); !slices.Equal(got, want) {
			t.Fatalf("trial %d, head %d, %v:\nelevator %v\ntwo-sort %v", trial, head, reqs, got, want)
		}
	}
}

// TestSCANOrderOnOverlappingBatch pins where the two SCAN rules part:
// a request the head passes over on its way up. The surviving rule is
// the online one the shared queue applies: after serving [0, 8192) the
// head stands at 8192, so the sweep carries on up to 10000 and serves
// 4096 on the way back. The two-sort rule served 4096 second because it
// lies past the start head. No caller builds such a batch: write-back
// flushes send distinct whole pages.
func TestSCANOrderOnOverlappingBatch(t *testing.T) {
	reqs := []Request{{Offset: 0, Length: 8192}, {Offset: 4096}, {Offset: 10000}}
	if got, want := scheduleOrder(0, reqs, SCAN), []int{0, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("SCAN order %v, want %v", got, want)
	}
	if got, want := refSCANOrder(0, reqs), []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("two-sort order %v, want %v", got, want)
	}
}

// Property: regardless of policy, a batch serves every request exactly
// once with identical total bytes.
func TestSchedulerConservationProperty(t *testing.T) {
	for _, policy := range []SchedPolicy{FCFS, SSTF, SCAN} {
		f := func(offsets []int64) bool {
			if len(offsets) == 0 || len(offsets) > 64 {
				return true
			}
			d := MustNew(testParams())
			reqs := make([]Request, len(offsets))
			var wantBytes int64
			for i, raw := range offsets {
				off := raw % d.Params().Capacity
				if off < 0 {
					off += d.Params().Capacity
				}
				reqs[i] = Request{Offset: off, Length: 4096}
				wantBytes += 4096
			}
			res, _ := d.ServeBatch(time.Unix(0, 0), reqs, policy)
			if len(res) != len(reqs) {
				return false
			}
			s := d.Stats()
			return s.Ops() == int64(len(reqs)) && s.BytesRead == wantBytes
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
	}
}
