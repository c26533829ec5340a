package simdisk

import (
	"math/rand"
	"slices"
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
	order := ScheduleOrder(d.Head(), reqs, SCAN)
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

// TestSSTFOrderMatchesScan checks the sorted, union-find SSTF order
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
		got := ScheduleOrder(head, reqs, SSTF)
		if want := refSSTFOrder(head, reqs); !slices.Equal(got, want) {
			t.Fatalf("trial %d, head %d, %v:\norder %v\nscan  %v", trial, head, reqs, got, want)
		}
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
